"""Record the reference outputs that run.py compares against.

For each workload and each seed in workloads.json "reference_seeds", run
one round and store its battery values or CSV fingerprints, together with
the digest of the workload definition they belong to.  Rerun after a
change to a workload definition, or after a change to queuelab that is
meant to alter its outputs, and say why in the change.

    python3 bench/record_reference.py
"""
import json
import re
import tempfile

from workloads import OUT_DIR, REFERENCE_FILE, SPEC, Workload, spec_digest


def main():
    OUT_DIR.mkdir(exist_ok=True)
    refs = {}
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        for name in SPEC["workloads"]:
            seeds = {}
            for seed in SPEC["reference_seeds"]:
                wl = Workload(name, seed)
                wl.setup()
                rnd = wl.run_round(workdir, fingerprint=True)
                seeds[str(seed)] = rnd.fingerprints
                print(f"{name} seed {seed}: {len(rnd.fingerprints)} outputs", flush=True)
            refs[name] = {"spec_sha256": spec_digest(name), "seeds": seeds}
    text = json.dumps(refs, indent=1, sort_keys=True)
    # one line per innermost list: [sum |v|, sum v^2] pairs stay readable
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + re.sub(r",\s+", ", ", m.group(1)) + "]", text)
    REFERENCE_FILE.write_text(text + "\n")


if __name__ == "__main__":
    main()
