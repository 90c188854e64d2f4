"""Seeded inputs for the benchmark workloads.

The seed only decides the inputs. ``verify-builtin`` and
``classify-ladder`` run fixed ring lists whose order the seed shuffles.
``hunt-noncomm`` runs 16 rings of order at most 128: seven mid-size rings
that carry most of the work, six small ones, and three quotients of
``T:2`` rings by an element the seed draws among those giving a fixed
quotient order. The seed also picks two of the order-64 rings and three
of the small rings or quotients; these are written as table files with
their nonzero elements renumbered at random and reach the program
through ``file:`` specs. The ring shapes stay fixed so that every seed
asks for nearly the same work, which keeps runs with different seeds
comparable.
"""

from __future__ import annotations

import random
from pathlib import Path

WORKLOADS = ("verify-builtin", "classify-ladder", "hunt-noncomm")

LADDER = ("Zn:64", "Zn:210", "T:2:Zn:4", "T:3:Zn:2", "M:2:Zn:3", "dsum(M:2:Zn:2,Zn:12)",
          "M:2:Zn:4")

HUNT_QUERY = ("(weakly_nilary_right and not weakly_nilary_left)"
              " or (right_primary and not left_primary)"
              " or (weakly_nilary and not nilary)")
HUNT_MAX_ORDER = 128
# the first three have order 64; two of them go through table files
HUNT_CORE = ("T:2:Zn:4", "T:2:dsum(Zn:2,Zn:2)", "T:3:Zn:2", "M:2:Zn:3",
             "dsum(M:2:Zn:2,zmul:8)", "dsum(T:2:Zn:3,zmul:4)", "dsum(T:3:Zn:2,zmul:2)")
HUNT_SMALL = ("T:2:Zn:2", "T:2:Zn:3", "M:2:Zn:2", "dsum(T:2:Zn:2,Zn:3)",
              "dsum(T:2:Zn:2,zmul:4)", "dsum(M:2:Zn:2,zmul:2)")
HUNT_QUOTIENTS = (("T:2:Zn:3", 3), ("T:2:Zn:4", 16), ("T:2:dsum(Zn:2,Zn:2)", 8))  # base, order


def make_specs(workload: str, seed: int, workdir: Path, root: Path) -> list[str]:
    """Ring specs for one run; hunt table files are written under workdir.

    ``file:`` specs name their file relative to root, the directory the
    worker runs in.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-builtin":
        from nilary.corpus import builtin_specs

        specs = list(builtin_specs())
    elif workload == "classify-ladder":
        specs = list(LADDER)
    elif workload == "hunt-noncomm":
        specs = _hunt_specs(rng, workdir, root)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(specs)
    return specs


def _hunt_specs(rng: random.Random, workdir: Path, root: Path) -> list[str]:
    from nilary.specs import parse_ring_spec, write_ring_file

    quotients = []
    for base, order in HUNT_QUOTIENTS:
        n = parse_ring_spec(base).order
        while True:
            spec = f"quot({base},gen({rng.randrange(1, n)}))"
            if parse_ring_spec(spec).order == order:
                break
        quotients.append(spec)
    small = list(HUNT_SMALL) + quotients
    to_file = rng.sample(HUNT_CORE[:3], 2) + rng.sample(small, 3)
    specs = []
    for i, spec in enumerate(HUNT_CORE + tuple(small)):
        if spec in to_file:
            path = workdir / f"ring{i:02d}.tbl"
            write_ring_file(relabel(parse_ring_spec(spec), rng), path)
            spec = "file:" + path.relative_to(root).as_posix()
        specs.append(spec)
    return specs


def relabel(ring, rng: random.Random):
    """An isomorphic copy of ring with its nonzero elements renumbered at random."""
    from nilary.rings import Ring

    n = ring.order
    new = [0] + rng.sample(range(1, n), n - 1)  # new[a] is the index of a in the copy
    old = [0] * n
    for a, b in enumerate(new):
        old[b] = a

    def table(t):
        return [[new[t[old[x]][old[y]]] for y in range(n)] for x in range(n)]

    one = new[ring.one] if ring.one is not None else None
    return Ring.from_tables(n, table(ring.add), table(ring.mul), one=one, label=ring.label)
