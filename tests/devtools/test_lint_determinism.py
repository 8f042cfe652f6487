"""RPL001-RPL004 fixtures: positives, negatives, suppressions.

Every snippet is linted under a virtual path so the scoping logic
(determinism rules apply only in ``repro.{core,decomp,graphs,ilp,
local}``) is exercised exactly as it is on the real tree.
"""

import textwrap
from pathlib import Path

import repro
from repro.devtools.lint import lint_sources
from repro.devtools.lint.engine import DETERMINISM_PACKAGES

LIB = "src/repro/core/fixture.py"
EXEMPT = "src/repro/exp/fixture.py"


def lint(source, path=LIB, **kwargs):
    return lint_sources([(path, textwrap.dedent(source))], **kwargs)


def codes(source, path=LIB, **kwargs):
    return [v.code for v in lint(source, path=path, **kwargs)]


class TestStdlibRandom:
    def test_import_flagged(self):
        assert "RPL001" in codes("import random\n")

    def test_from_import_flagged(self):
        assert "RPL001" in codes("from random import shuffle\n")

    def test_numpy_random_import_not_confused(self):
        assert "RPL001" not in codes("import numpy.random\n")

    def test_out_of_scope_package_exempt(self):
        assert codes("import random\n", path=EXEMPT) == []

    def test_tests_exempt(self):
        assert codes("import random\n", path="tests/test_x.py") == []

    def test_ilp_mwu_solver_tier_is_in_scope(self):
        # The certified MWU tier lives at repro/ilp/mwu.py; "ilp" in
        # DETERMINISM_PACKAGES must keep its whole subtree covered.
        assert "ilp" in DETERMINISM_PACKAGES
        assert "RPL001" in codes("import random\n", path="src/repro/ilp/mwu.py")
        assert "RPL003" in codes(
            "import numpy as np\nrng = np.random.default_rng()\n",
            path="src/repro/ilp/mwu.py",
        )


class TestScope:
    def test_every_scoped_package_exists(self):
        # A deleted or renamed package must not leave a stale scope
        # entry behind.
        root = Path(repro.__file__).parent
        missing = sorted(
            pkg for pkg in DETERMINISM_PACKAGES if not (root / pkg).is_dir()
        )
        assert missing == []


class TestNumpyGlobalState:
    def test_seed_flagged(self):
        src = """
            import numpy as np
            np.random.seed(3)
        """
        assert "RPL002" in codes(src)

    def test_legacy_distribution_flagged(self):
        src = """
            import numpy as np
            x = np.random.rand(4)
        """
        assert "RPL002" in codes(src)

    def test_legacy_import_from_flagged(self):
        assert "RPL002" in codes("from numpy.random import randint\n")

    def test_seeded_api_clean(self):
        src = """
            import numpy as np

            def f(seed):
                rng = np.random.default_rng(seed)
                ss = np.random.SeedSequence(5)
                return rng, ss
        """
        assert codes(src) == []

    def test_alias_resolved(self):
        src = """
            import numpy.random as npr
            npr.shuffle([1, 2])
        """
        assert "RPL002" in codes(src)


class TestUnseededGenerator:
    def test_bare_default_rng_flagged(self):
        src = """
            import numpy as np
            rng = np.random.default_rng()
        """
        assert "RPL003" in codes(src)

    def test_none_seed_flagged(self):
        src = """
            import numpy as np
            rng = np.random.default_rng(None)
        """
        assert "RPL003" in codes(src)

    def test_unseeded_bit_generator_flagged(self):
        src = """
            from numpy.random import Generator, PCG64
            rng = Generator(PCG64())
        """
        assert "RPL003" in codes(src)

    def test_seeded_constructions_clean(self):
        src = """
            import numpy as np
            from numpy.random import Generator, PCG64

            def f(seed, ss):
                a = np.random.default_rng(seed)
                b = Generator(PCG64(seed))
                c = np.random.default_rng(ss.spawn(1)[0])
                return a, b, c
        """
        assert codes(src) == []

    def test_inline_suppression(self):
        src = """
            import numpy as np
            rng = np.random.default_rng()  # repro-lint: disable=RPL003
        """
        assert codes(src) == []

    def test_standalone_suppression_covers_next_line(self):
        src = """
            import numpy as np
            # repro-lint: disable=RPL003
            rng = np.random.default_rng()
        """
        assert codes(src) == []

    def test_wrong_code_does_not_suppress(self):
        src = """
            import numpy as np
            rng = np.random.default_rng()  # repro-lint: disable=RPL001
        """
        assert "RPL003" in codes(src)

    def test_disable_all_suppresses(self):
        src = """
            import numpy as np
            rng = np.random.default_rng()  # repro-lint: disable=all
        """
        assert codes(src) == []


class TestEntropySeeds:
    def test_urandom_flagged(self):
        src = """
            import os
            token = os.urandom(8)
        """
        assert "RPL004" in codes(src)

    def test_time_seed_assignment_flagged(self):
        src = """
            import time
            seed = time.time_ns()
        """
        assert "RPL004" in codes(src)

    def test_time_inside_rng_constructor_flagged(self):
        src = """
            import time
            import numpy as np
            rng = np.random.default_rng(int(time.time()))
        """
        assert "RPL004" in codes(src)

    def test_time_keyword_seed_flagged(self):
        src = """
            import time

            def f(run):
                return run(seed=time.time_ns())
        """
        assert "RPL004" in codes(src)

    def test_timing_use_not_seed_shaped(self):
        # Pure timing is not RPL004's business (no seed is fed) — it is
        # RPL401's (clocks belong behind repro.obs in this scope).
        src = """
            import time

            def f(work):
                start = time.perf_counter()
                work()
                return time.perf_counter() - start
        """
        assert "RPL004" not in codes(src)
