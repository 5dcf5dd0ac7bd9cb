"""Settings shared by every test module: a test run writes nothing into
the checkout."""
import tempfile

from hypothesis import configuration, settings

settings.register_profile("queuelab", database=None)
settings.load_profile("queuelab")

# Hypothesis also caches the constants it finds in local source files under
# its home directory, ./.hypothesis unless told otherwise
_HOME = tempfile.TemporaryDirectory(prefix="queuelab-hypothesis-")


def pytest_configure(config):
    configuration.set_hypothesis_home_dir(_HOME.name)


def pytest_unconfigure(config):
    _HOME.cleanup()
