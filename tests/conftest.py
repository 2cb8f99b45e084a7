"""Tier-1 collection order: a seeded shuffle, fixed per interpreter.

No test may depend on the order the suite runs in.  Modules are
shuffled, then the classes inside each module, then the tests inside
each class.  Keeping a module's tests together builds each module- and
class-scoped fixture once, as an unshuffled run does.  The seed is the
interpreter's minor version, so each CI leg (3.9, 3.11, 3.12) runs its
own fixed order and a failure reproduces on the same interpreter.
"""

import random
import sys

SEED = sys.version_info.minor


def pytest_report_header(config):
    return f"collection order: grouped shuffle, seed {SEED}"


def pytest_collection_modifyitems(session, config, items):
    rng = random.Random(SEED)
    modules = {}
    for item in items:
        module = getattr(item, "module", None)
        cls = getattr(item, "cls", None)
        classes = modules.setdefault(module.__name__ if module else "", {})
        classes.setdefault(cls.__name__ if cls else "", []).append(item)
    shuffled = []
    for classes in rng.sample(list(modules.values()), len(modules)):
        for tests in rng.sample(list(classes.values()), len(classes)):
            shuffled.extend(rng.sample(tests, len(tests)))
    items[:] = shuffled
