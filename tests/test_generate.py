import random
from fractions import Fraction

import pytest

from ctwkit import (
    breakdown,
    ds_only_solve,
    emit_dat,
    enumerate_solutions,
    unsat_precheck,
    validate,
)
from ctwkit.generate import (
    GenMode,
    GenParams,
    _pairs_from_indices,
    anytime_suite,
    certification_suite,
    generate,
    generate_planted,
)

from conftest import random_params


def loop_pair_from_index(idx, k):
    """Reference: walk the rows of the pair triangle one at a time."""
    u = 1
    span = k - 1
    while idx >= span:
        idx -= span
        u += 1
        span -= 1
    return (u, u + 1 + idx)


def test_pairs_from_indices_is_a_bijection_onto_ordered_pairs():
    for k in range(2, 61):
        pairs = list(_pairs_from_indices(range(k * (k - 1) // 2), k))
        assert pairs == [(u, v) for u in range(1, k + 1) for v in range(u + 1, k + 1)]
    assert list(_pairs_from_indices([], 5)) == []


def test_pairs_from_indices_matches_the_row_walk_at_large_k():
    rng = random.Random(107)
    for k in (3000, 10 ** 5):
        total = k * (k - 1) // 2
        # the first row boundary, the last pairs, and random draws, in the
        # order given
        samples = [0, 1, k - 2, k - 1, k, total - 3, total - 2, total - 1]
        samples += [rng.randrange(total) for _ in range(200)]
        expected = [loop_pair_from_index(idx, k) for idx in samples]
        assert list(_pairs_from_indices(samples, k)) == expected


def test_planted_solution_is_valid():
    rng = random.Random(103)
    for _ in range(150):
        params = random_params(rng, GenMode.SATISFIABLE, max_k=12)
        inst, plant = generate_planted(params)
        assert plant is not None
        assert validate(inst, plant) == []


def test_unsatisfiable_mode_injects_detectable_cycle():
    rng = random.Random(107)
    for _ in range(60):
        params = random_params(rng, GenMode.UNSATISFIABLE, max_k=7)
        inst, plant = generate_planted(params)
        assert plant is None
        assert unsat_precheck(inst) is not None
        assert enumerate_solutions(inst).valid_count == 0


def test_ds_only_mode_matches_linear_solver():
    inst = generate(GenParams(b=3, n=0, ds_count=4, seed=5, mode=GenMode.DS_ONLY))
    assert inst.atomic == () and inst.soft_atomic == () and inst.disjunctive == ()
    assert len(inst.direct_successors) == 4
    perm = ds_only_solve(inst)
    assert validate(inst, perm) == []
    assert breakdown(inst, perm).objective == 0


def test_atomic_only_mode_is_a_dag_instance():
    inst = generate(GenParams(b=0, n=10, p_atomic=0.5, seed=9, mode=GenMode.ATOMIC_ONLY))
    assert inst.b == 0
    assert inst.soft_atomic == () and inst.disjunctive == ()
    assert unsat_precheck(inst) is None


def test_parameter_validation():
    with pytest.raises(ValueError):
        GenParams(b=1, n=0, ds_count=3)  # ds_count > 2b
    with pytest.raises(ValueError):
        GenParams(b=1, n=0, mode=GenMode.ATOMIC_ONLY)  # needs b = 0
    with pytest.raises(ValueError):
        GenParams(b=0, n=1, mode=GenMode.UNSATISFIABLE)  # no room for a cycle
    with pytest.raises(ValueError):
        GenParams(b=0, n=2, p_atomic=1.5)
    with pytest.raises(ValueError):
        GenParams(b=-1, n=2)


@pytest.mark.parametrize("name, fields", [
    ("b", dict(b=1.5, n=1)), ("n", dict(b=1, n=2.0)), ("ds_count", dict(b=2, ds_count=1.5)),
    ("seed", dict(seed=None)), ("seed", dict(seed="7")),
])
def test_integer_fields_must_be_integers(name, fields):
    # None would seed from the OS, so two draws of the same parameters differ
    with pytest.raises(ValueError, match=f"^{name} must be an integer: "):
        GenParams(**fields)


def test_integer_fields_are_stored_as_plain_ints():
    params = GenParams(b=True, n=2, ds_count=True, seed=False)
    assert [type(getattr(params, f)) for f in ("b", "n", "ds_count", "seed")] == [int] * 4
    assert emit_dat(generate(params)) == emit_dat(generate(GenParams(b=1, n=2, ds_count=1)))


@pytest.mark.parametrize("mode", ["satisfiable", None, "ds-only", 0])
def test_mode_must_be_a_gen_mode(mode):
    # a mode is compared by identity: the string would generate as no mode
    # at all, with no disjunctions
    with pytest.raises(ValueError, match="^mode must be a GenMode, got "):
        GenParams(b=4, n=2, p_disjunctive=0.5, seed=3, mode=mode)
    inst = generate(GenParams(b=4, n=2, p_disjunctive=0.5, seed=3, mode=GenMode.SATISFIABLE))
    assert len(inst.disjunctive) == 8


@pytest.mark.parametrize("name", ["p_atomic", "p_soft", "p_disjunctive"])
def test_densities_must_be_real_numbers(name):
    for bad in ("0.5", None, 0.5j, [0.5]):
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
            GenParams(b=2, n=1, **{name: bad})
    with pytest.raises(ValueError, match=f"^{name} must lie in \\[0, 1\\], got nan$"):
        GenParams(b=2, n=1, **{name: float("nan")})
    # any real number in [0, 1] is a density
    assert emit_dat(generate(GenParams(b=2, n=1, seed=5, **{name: Fraction(1, 2)}))) == \
        emit_dat(generate(GenParams(b=2, n=1, seed=5, **{name: 0.5})))
    GenParams(b=2, n=1, **{name: True})


def test_same_seed_same_bytes():
    params = GenParams(b=3, n=2, p_atomic=0.3, p_soft=0.2, p_disjunctive=0.25,
                       ds_count=2, seed=77)
    assert emit_dat(generate(params)) == emit_dat(generate(params))


def test_different_seeds_differ():
    base = dict(b=3, n=2, p_atomic=0.3, p_soft=0.2, p_disjunctive=0.25, ds_count=2)
    a = emit_dat(generate(GenParams(seed=1, **base)))
    b = emit_dat(generate(GenParams(seed=2, **base)))
    assert a != b


def test_disjunctive_shapes_follow_the_two_syntactic_forms():
    rng = random.Random(109)
    for _ in range(50):
        params = random_params(rng, GenMode.SATISFIABLE, max_k=10)
        inst, _ = generate_planted(params)
        triples = set()
        for d in inst.disjunctive:
            ends = set(d)
            pair_start = next(
                i for i in sorted(ends) if i <= inst.b and i + inst.b in ends
            )
            j = pair_start + inst.b
            l = (ends - {pair_start, j}).pop()
            d1 = (l, pair_start, l, j)
            d2a = (l, pair_start, j, l)
            d2b = (l, j, pair_start, l)
            assert tuple(d) in (d1, d2a, d2b)
            # at most one constraint per (pair, third) triple
            key = (pair_start, l)
            assert key not in triples
            triples.add(key)


def test_soft_density_keeps_expected_violations_below_k():
    rng = random.Random(113)
    total_n = 0
    count = 0
    for seed in range(40):
        params = GenParams(b=5, n=5, p_atomic=0.1, p_soft=0.05,
                           p_disjunctive=0.05, seed=seed)
        inst, plant = generate_planted(params)
        total_n += breakdown(inst, plant).N
        count += 1
    assert total_n / count < 15  # E[N] stays well below k at default-ish density


def test_certification_suite_composition():
    suite = certification_suite(seed=0)
    assert len(suite) == 200
    names = [name for name, _ in suite]
    assert names == sorted(names)
    unsat = sum(1 for _, p in suite if p.mode is GenMode.UNSATISFIABLE)
    assert unsat >= 20
    for _, params in suite:
        assert params.k <= 8
        inst = generate(params)
        assert inst.k == params.k


def test_anytime_suite_composition():
    suite = anytime_suite(seed=0)
    assert len(suite) == 50
    for _, params in suite:
        assert 20 <= params.k <= 50
        assert params.mode is GenMode.SATISFIABLE
