"""The benchmark's workloads: the inputs each one generates and the CLI commands it times.

Every workload runs one round of the same small commands before its own
commands and one after them.  A round runs each of the five timed commands
on small inputs, so every end-to-end metric and every layer is measured on
every workload.  The rounds are small beside each workload's own commands,
which set the workload's character:

* ``map-pipeline``: CSV reads and writes of a 1e5-pair map, plus the
  seeded-random pair kernel on the original, inverted and compactified map.
* ``allpairs``: the all-pairs kernel on five 1990-sample registry maps
  (probes plus origin stay under the 2000 cap), their inverted copies and
  one shell restriction; files are 160 KB, so I/O is nearly absent and the
  import is the largest share of any workload.
* ``suites``: ``verify all`` (scalar identity loops) and ``cones`` on a
  spread spiral and a ray whose directions coincide, the easy and the hard
  input of a tree-based Hausdorff distance.  The spiral takes no seed, so
  the seed reaches the cone inputs through the ray.
"""

from __future__ import annotations

import dataclasses
import math

NAMES = ("map-pipeline", "allpairs", "suites")
TIMED_COMMANDS = ("invert", "compactify", "distortion", "cones", "verify")

# The registry's linear maps, restated here so that the oracle for their
# constants does not come from the program under test.
LINEAR_MATRICES = {
    "shear": [[1.0, 0.0], [0.5, 1.0]],
    "diag-1-3": [[1.0, 0.0], [0.0, 3.0]],
    "scale-10": [[10.0, 0.0], [0.0, 10.0]],
}
ALLPAIRS_MAPS = ("shear", "diag-1-3", "scale-10", "radial-shell-1.25", "radial-square")


def svd_constant(name: str) -> float:
    """max(s_max, 1/s_min) of a 2x2 matrix, from its Frobenius norm and determinant.

    Closed form rather than numpy: the benchmark's own process stays small,
    because every child's peak RSS counts the parent's at spawn.
    """
    (a, b), (c, d) = LINEAR_MATRICES[name]
    frob2 = a * a + b * b + c * c + d * d
    det = abs(a * d - b * c)
    s_max = math.sqrt((frob2 + math.sqrt(frob2 * frob2 - 4.0 * det * det)) / 2.0)
    s_min = det / s_max
    return max(s_max, 1.0 / s_min)


@dataclasses.dataclass(frozen=True)
class Command:
    """One ``bilip`` invocation and what its report must satisfy.

    ``at_most`` bounds a distortion report's ``bilip_constant``; ``equals``
    pins it to within 1e-9.
    """

    argv: tuple[str, ...]
    at_most: float | None = None
    equals: float | None = None

    @property
    def name(self) -> str:
        return self.argv[0]

    @property
    def output(self) -> str | None:
        """The map file an invert or compactify writes."""
        if self.name in ("invert", "compactify"):
            return self.argv[self.argv.index("--output") + 1]
        return None


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[tuple[str, ...], ...]
    commands: tuple[Command, ...]

    @property
    def inputs(self) -> tuple[str, ...]:
        """Files the set-up writes (a map's sidecar is named after its CSV)."""
        return tuple(argv[argv.index("--output") + 1] for argv in self.setup)

    @property
    def outputs(self) -> tuple[str, ...]:
        """Map files the commands write."""
        return tuple(c.output for c in self.commands if c.output)


def _linear_bounds(name: str) -> tuple[float, float]:
    """(bound of the map, bound of its inverted copy): A + 1e-9 and A^3 + 1e-6."""
    a = svd_constant(name)
    return a + 1e-9, a**3 + 1e-6


def _rounds(seed: int) -> tuple[list, list]:
    """The set-up and the two rounds of commands common to every workload.

    Their commands last about 0.1 s, mostly the import, and their times come
    in bursts of a few seconds; two rounds, one at each end of a pass, give
    each of them twice the samples per run, apart in time.  Each round writes
    its own files, because rewriting a file in place waits for a flush on ext4.
    """
    s = str(seed)
    bound, inverted_bound = _linear_bounds("shear")
    setup = [
        ("generate", "shear", "--n", "500", "--seed", s, "--output", "round.csv"),
        ("generate", "ray", "--n", "2000", "--seed", s, "--output", "round_ray.csv"),
    ]
    rounds = []
    for r in (1, 2):
        inverted = f"round{r}_inv.csv"
        rounds.append([
            Command(("invert", "round.csv", "--output", inverted)),
            Command(("compactify", "round.csv", "--output", f"round{r}_cpt.csv")),
            Command(("distortion", "round.csv", "--shell", "0.1:10"), at_most=bound),
            Command(("distortion", inverted, "--strategy", "random", "--pairs", "100000",
                     "--seed", s), at_most=inverted_bound),
            Command(("cones", "round_ray.csv")),
            Command(("verify", "all", "--seed", s, "--pairs", "100")),
        ])
    return setup, rounds


def _map_pipeline(seed: int) -> tuple[list, list]:
    s = str(seed)
    bound, inverted_bound = _linear_bounds("shear")
    random = ("--strategy", "random", "--pairs", "1000000", "--seed", s)
    setup = [("generate", "shear", "--n", "100000", "--seed", s, "--output", "shear.csv")]
    commands = [
        Command(("invert", "shear.csv", "--output", "shear_inv.csv")),
        Command(("compactify", "shear.csv", "--output", "shear_cpt.csv")),
        Command(("distortion", "shear.csv", *random), at_most=bound),
        Command(("distortion", "shear_inv.csv", *random), at_most=inverted_bound),
        Command(("distortion", "shear_cpt.csv", *random)),
    ]
    return setup, commands


def _allpairs(seed: int) -> tuple[list, list]:
    s = str(seed)
    setup, commands = [], []
    # Each of these maps either fixes or avoids the origin, so all can be inverted.
    for name in ALLPAIRS_MAPS:
        plain, inverted = f"ap_{name}.csv", f"ap_{name}_inv.csv"
        setup.append(("generate", name, "--n", "1990", "--seed", s, "--output", plain))
        bound = inverted_bound = equals = None
        if name in LINEAR_MATRICES:
            bound, inverted_bound = _linear_bounds(name)
        if name == "scale-10":
            equals = 10.0
        commands += [
            Command(("invert", plain, "--output", inverted)),
            Command(("distortion", plain), at_most=bound, equals=equals),
            Command(("distortion", inverted), at_most=inverted_bound),
        ]
    bound, _ = _linear_bounds("shear")
    commands.append(Command(("distortion", "ap_shear.csv", "--shell", "0.1:10"), at_most=bound))
    return setup, commands


def _suites(seed: int) -> tuple[list, list]:
    s = str(seed)
    setup = [
        ("generate", "spiral", "--n", "100000", "--output", "spiral.csv"),
        ("generate", "ray", "--dim", "3", "--n", "50000", "--seed", s, "--output", "ray.csv"),
    ]
    commands = [
        Command(("verify", "all", "--seed", s)),
        Command(("cones", "spiral.csv", "--fraction", "0.05")),
        Command(("cones", "ray.csv", "--fraction", "0.1")),
    ]
    return setup, commands


_BY_NAME = {"map-pipeline": _map_pipeline, "allpairs": _allpairs, "suites": _suites}


def build(name: str, seed: int) -> Workload:
    setup, commands = _BY_NAME[name](seed)
    common_setup, (before, after) = _rounds(seed)
    return Workload(name, tuple(setup + common_setup), tuple(before + commands + after))
