"""Differential test of ``generate.generate_planted`` against the generator
it replaced.

The reference below is the earlier generator, copied unchanged with the
closed form ``_pair_from_index`` it called once per sampled index: it
deduplicated every constraint set through ``set`` before sorting it. Its
module-level name ``generate_planted`` is the reference; the generator
under test is always called as ``generate.generate_planted``. Both must
return equal ``(instance, plant)`` pairs on the benchmark suites and on
the instance shapes of the ``exact``, ``anytime`` and ``audit`` workloads
of ``perfbench/workloads.py``: the same random draws in the same order,
so that every generated instance file and workload stays the same.

The emitters write the sorted rows of the instance they are given, where
they once built its ``canonical()`` form; on a parsed instance whose rows
are out of order both must give the same text.
"""

import importlib
import math
import random
from itertools import chain

from ctwkit import emit_dat, emit_dzn, parse_dat
from ctwkit.generate import GenMode, GenParams, anytime_suite, certification_suite
from ctwkit.model import Instance, Permutation
from ctwkit.polycases import ds_only_solve

from test_formats import _dat

# the package re-exports the function ``generate`` under the module's name
generate = importlib.import_module("ctwkit.generate")

# ---------------------------------------------------------------------------
# Reference generator


def _pair_from_index(idx: int, k: int) -> tuple[int, int]:
    # Bijection from 0..k(k-1)/2-1 onto unordered pairs (u, v), u < v, in
    # row order: row u holds (u, u+1) .. (u, k). Counted from the last
    # pair, the rows hold 1, 2, 3, ... pairs, so the row is the triangular
    # root of that count and the column what is left after the row's start.
    back = k * (k - 1) // 2 - 1 - idx
    row = (math.isqrt(8 * back + 1) - 1) // 2  # rows after u
    u = k - 1 - row
    return (u, u + 1 + row - (back - row * (row + 1) // 2))


def generate_planted(params: GenParams) -> tuple[Instance, Permutation | None]:
    """Generate an instance together with its planted solution.

    The plant is a valid solution for SATISFIABLE, ATOMIC_ONLY and DS_ONLY
    modes and None for UNSATISFIABLE. Deterministic per seed.
    """
    rng = random.Random(params.seed)
    k, b = params.k, params.b
    mode = params.mode

    jobs = list(range(1, k + 1))
    if mode is GenMode.DS_ONLY:
        plant = ds_only_solve(Instance(k=k, b=b))
    else:
        shuffled = jobs[:]
        rng.shuffle(shuffled)
        plant = Permutation(tuple(shuffled))
    pos = plant._pos

    atomic: list[tuple[int, int]] = []
    soft: list[tuple[int, int]] = []
    disjunctive: list[tuple[int, int, int, int]] = []
    ds: list[int] = []

    if mode is not GenMode.DS_ONLY:
        total_pairs = k * (k - 1) // 2
        m_atomic = round(params.p_atomic * total_pairs)
        m_soft = 0 if mode is GenMode.ATOMIC_ONLY else round(params.p_soft * total_pairs)
        chosen = rng.sample(range(total_pairs), min(m_atomic + m_soft, total_pairs))
        for which, idx in enumerate(chosen):
            u, v = _pair_from_index(idx, k)
            if which < m_atomic:
                atomic.append((u, v) if pos[u] < pos[v] else (v, u))
            else:
                soft.append((u, v) if rng.random() < 0.5 else (v, u))

    if mode in (GenMode.SATISFIABLE, GenMode.UNSATISFIABLE) and b > 0 and k > 2:
        total_combos = b * (k - 2)
        m_disj = round(params.p_disjunctive * total_combos)
        for idx in rng.sample(range(total_combos), m_disj):
            i = idx // (k - 2) + 1
            off = idx % (k - 2)
            # off-th job when both pair ends are skipped (i < i+b always)
            l = off + 1
            if l >= i:
                l += 1
            if l >= i + b:
                l += 1
            j = i + b
            shape = rng.random()
            if shape < 0.5:
                d = (l, i, l, j)
            elif shape < 0.75:
                d = (l, i, j, l)
            else:
                d = (l, j, i, l)
            if pos[d[0]] < pos[d[1]] or pos[d[2]] < pos[d[3]]:
                disjunctive.append(d)

        if params.ds_count:
            consistent = [
                i
                for i in range(1, 2 * b + 1)
                if pos[i + b if i <= b else i - b] == pos[i] + 1
                or pos[i + b if i <= b else i - b] < pos[i]
            ]
            rng.shuffle(consistent)
            ds = consistent[: params.ds_count]
    elif mode is GenMode.DS_ONLY and params.ds_count:
        ds = rng.sample(range(1, 2 * b + 1), params.ds_count)

    if mode is GenMode.UNSATISFIABLE:
        length = rng.randint(2, min(4, k))
        cycle = rng.sample(jobs, length)
        injected = {
            (cycle[x], cycle[(x + 1) % length]) for x in range(length)
        }
        atomic = sorted(set(atomic) | injected)
        soft = [c for c in soft if c not in injected]
        plant = None

    inst = Instance(
        k=k,
        b=b,
        atomic=tuple(sorted(set(atomic))),
        soft_atomic=tuple(sorted(set(soft))),
        disjunctive=tuple(sorted(set(disjunctive))),
        direct_successors=tuple(sorted(ds)),
    )
    return inst, plant


# ---------------------------------------------------------------------------
# The parameters to compare on


def suite_params(seed: int):
    """The certification suite of ``seed`` and its anytime suite."""
    return [p for _, p in chain(certification_suite(seed), anytime_suite(seed))]


def workload_params(seed: int):
    """The generated instances of the ``exact``, ``anytime`` and ``audit``
    workloads of ``seed`` at their full size, drawn as
    ``perfbench/workloads.py`` draws them (the exact workload's MAS
    instances are no generator output and are left out)."""
    out = []
    for idx in range(1200):  # exact: k = 11, 12, 13
        if idx % 4 != 3:
            k = (11, 12, 13)[idx % 3]
            b = k // 2
            out.append(GenParams(b=b, n=k - 2 * b, p_atomic=0.30, p_soft=0.02,
                                 p_disjunctive=0.10, ds_count=b, seed=seed * 100_003 + idx))
    rng = random.Random(seed ^ 0x5EED)
    for idx in range(400):  # anytime: k = 40..60
        k = 40 + idx % 21
        b = rng.randint(k // 4, k // 2)
        out.append(GenParams(b=b, n=k - 2 * b, p_atomic=0.18,
                             p_soft=rng.choice((0.01, 0.02)),
                             p_disjunctive=rng.choice((0.05, 0.1)),
                             ds_count=rng.randint(0, b), seed=seed * 99_991 + idx))
    for idx in range(8):  # audit: k = 2000..3000
        k = 2000 + 1000 * idx // 7
        if idx % 4 == 3:
            out.append(GenParams(b=0, n=k, p_atomic=0.002, seed=seed * 100_003 + idx,
                                 mode=GenMode.ATOMIC_ONLY))
        else:
            b = k // 4
            out.append(GenParams(b=b, n=k - 2 * b, p_atomic=0.001, p_soft=0.0003,
                                 p_disjunctive=0.002, ds_count=b // 4,
                                 seed=seed * 100_003 + idx))
    return out


def assert_generator_matches_reference(suite_seeds, workload_seeds) -> int:
    """Equal ``(instance, plant)`` pairs from both generators on the suites
    of each of ``suite_seeds`` and the workload shapes of each of
    ``workload_seeds``. Returns the number of instances compared."""
    params = [p for seed in suite_seeds for p in suite_params(seed)]
    params += [p for seed in workload_seeds for p in workload_params(seed)]
    for p in params:
        assert generate.generate_planted(p) == generate_planted(p), p
    return len(params)


def test_generator_matches_reference():
    assert assert_generator_matches_reference(range(4), [1]) == 4 * 250 + 1308


def test_emitters_write_the_canonical_text_of_unsorted_rows():
    inst = parse_dat(_dat(k=6, b=2, atomic="{<5,6>, <3,4>, <1,5>}", soft="{<6,2>, <2,6>}",
                          disj="{<6,2,6,4>, <5,1,3,5>}", ds="{4,1,3}"))
    assert inst.atomic == ((5, 6), (3, 4), (1, 5))  # kept in file order
    for emit in (emit_dat, emit_dzn):
        assert emit(inst) == emit(inst.canonical())
    assert emit_dat(inst) == (
        "k = 6;\nb = 2;\n"
        "AtomicConstraints = {<1,5>, <3,4>, <5,6>};\n"
        "SoftAtomicConstraints = {<2,6>, <6,2>};\n"
        "DisjunctiveConstraints = {<5,1,3,5>, <6,2,6,4>};\n"
        "DirectSuccessors = {1,3,4};\n"
    )
