"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is exact; the enumerations close in well under the
sixty-second budget on commodity hardware.
"""
import itertools
import random
import time


from exseq import (
    DObj, MutationSign, QuiverDescriptor, WindowSpec, build_root_system,
    class_of, collection, config_to_riedtmann, config_to_silting,
    enumerate_complete_sequences, enumerate_kind, enumerate_m_nc, ext_dim,
    fuss_catalan, generate_weyl, hom_dim, mu_rev, mu_rev_inverse, mutate,
    nu_inv, phi, phi_inverse, reflection_matrix, riedtmann_to_config, shift,
    silting_to_config, torsion_window,
)
from exseq.derived import nonzero_exts
from exseq.roots import mat_vec
from exseq.sequences import mu_rev_inverse_steps, mu_rev_steps
from exseq.silting import order_config, order_silting

from oracle import (
    derived_hom_oracle, enumerate_tilting_oracle, sequence_reflection_product,
)

SYSTEMS = {
    name: build_root_system(QuiverDescriptor.standard(name[0], int(name[1])))
    for name in ("A2", "A3", "D4")
}

COUNT_TABLE = {
    ("A2", 1): 5, ("A2", 2): 12, ("A2", 3): 22,
    ("A3", 1): 14, ("A3", 2): 55,
    ("D4", 1): 50, ("D4", 2): 336,
}

POSITIVE_TABLE = {("A2", 1): 2, ("A2", 2): 7, ("A3", 1): 5}


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _criterion1_sets():
    for (name, m), expected in COUNT_TABLE.items():
        yield name, SYSTEMS[name], m, expected


def test_criterion_1_count_agreement():
    start = time.perf_counter()
    details = []
    ok = True
    for name, rs, m, expected in _criterion1_sets():
        group = generate_weyl(rs)
        counts = (
            fuss_catalan(rs, m),
            len(enumerate_kind(rs, "m-cluster-tilting", m)),
            len(enumerate_kind(rs, "m-config", m)),
            len(enumerate_m_nc(group, m)),
        )
        ok = ok and all(c == expected for c in counts)
        details.append(f"{name} m={m}: {'/'.join(map(str, counts))}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    report("criterion 1 (count agreement)", ok,
           "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_2_positive_counts():
    ok = True
    details = []
    for (name, m), expected in POSITIVE_TABLE.items():
        rs = SYSTEMS[name]
        counts = (
            abs(fuss_catalan(rs, -m - 1)),
            len(enumerate_kind(rs, "silting-deg1-window", m)),
            len(enumerate_kind(rs, "m-config-minus", m)),
        )
        ok = ok and all(c == expected for c in counts)
        details.append(f"{name} m={m}: {'/'.join(map(str, counts))}")
    report("criterion 2 (positive counts)", ok, "; ".join(details))


def test_criterion_3_bijection_round_trips():
    checked = 0
    for name, rs, m, _ in _criterion1_sets():
        group = generate_weyl(rs)
        configs = set(enumerate_kind(rs, "m-config", m))
        silting_image = set()
        for col in enumerate_kind(rs, "m-cluster-tilting", m):
            out = silting_to_config(col)
            assert config_to_silting(out) == col, (name, m, col)
            silting_image.add(out)
            checked += 1
        assert silting_image == configs, (name, m)
        phi_image = set()
        for parts in enumerate_m_nc(group, m):
            out = phi(group, parts)
            assert phi_inverse(group, out, m) == parts, (name, m, parts)
            phi_image.add(out)
            checked += 1
        assert phi_image == configs, (name, m)
    report("criterion 3 (bijection round trips)", True,
           f"{checked} exhaustive round trips")


def _random_windowed_sequence(rng, seqs):
    seq = rng.choice(seqs)
    return tuple(shift(x, rng.randint(-2, 3)) for x in seq)


def _check_calculus(seq) -> None:
    n = len(seq)
    rng_positions = range(1, n)
    # inverse law both ways at every position
    for i in rng_positions:
        assert mutate(mutate(seq, i, "right")[0], i, "left")[0] == seq
        assert mutate(mutate(seq, i, "left")[0], i, "right")[0] == seq
    # braid relation at every adjacent pair of positions
    def mu(s, i):
        return mutate(s, i, "right")[0]
    for i in range(1, n - 1):
        assert mu(mu(mu(seq, i), i + 1), i) == mu(mu(mu(seq, i + 1), i), i + 1)
    # far commutation
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            assert mu(mu(seq, i), j) == mu(mu(seq, j), i)
    # Ext-dimension preservation under mu_1 mu_2
    if n >= 3:
        out = mu(mu(seq, 2), 1)
        for t in range(-3, 4):
            assert ext_dim(seq[0], seq[1], t) == ext_dim(out[1], out[2], t)
    # nu-rotation identity (asserted inside rotate) and mu_rev^2 = nu^{-1}
    once, _ = mu_rev(seq)
    assert mu_rev_inverse(once)[0] == seq
    twice, _ = mu_rev(once)
    assert twice == tuple(nu_inv(x) for x in seq)


def test_criterion_4_mutation_calculus():
    from exseq import rotate
    rng = random.Random(20260810)
    seqs = {name: enumerate_complete_sequences(SYSTEMS[name])
            for name in ("A3", "D4")}
    total = 0
    for name, share in (("A3", 5000), ("D4", 5000)):
        for _ in range(share):
            _check_calculus(_random_windowed_sequence(rng, seqs[name]))
            total += 1
    for seq in seqs["A3"]:
        _check_calculus(seq)
        rotate(seq)
        total += 1
    report("criterion 4 (mutation calculus)", True,
           f"{total} sequences, zero failures")


def test_criterion_5_k0_weyl_compatibility():
    rng = random.Random(97)
    mutations = 0
    products = 0
    for name in ("A2", "A3", "D4"):
        rs = SYSTEMS[name]
        seqs = enumerate_complete_sequences(rs)
        c = rs.coxeter_matrix
        sample = seqs if name != "D4" else rng.sample(seqs, 40)
        for seq in sample:
            assert sequence_reflection_product(seq) == c, (name, seq)
            products += 1
        mut_sample = seqs if name != "D4" else rng.sample(seqs, 40)
        for seq in mut_sample:
            windowed = tuple(shift(x, rng.randint(-1, 2)) for x in seq)
            for i in range(1, rs.n):
                a, b = windowed[i - 1], windowed[i]
                new, _ = mutate(windowed, i, "right")
                assert class_of(new[i]) == mat_vec(reflection_matrix(rs, b.root),
                                                   class_of(a))
                mutations += 1
    report("criterion 5 (K0/Weyl compatibility)", True,
           f"{mutations} mutations, {products} reflection products")


def test_criterion_6_sequence_counts():
    expected = {"A2": 3, "A3": 16, "D4": 162}
    counts = {name: len(enumerate_complete_sequences(SYSTEMS[name]))
              for name in expected}
    ok = counts == expected
    report("criterion 6 (exceptional-sequence counts)", ok,
           "; ".join(f"{k}: {v}" for k, v in counts.items()))


def test_criterion_7_hom_oracle():
    pairs = 0
    for name in ("A2", "A3"):
        rs = SYSTEMS[name]
        objs = [DObj(rs, r, d) for r in range(len(rs.positive_roots))
                for d in range(0, 3)]
        for x, y in itertools.product(objs, objs):
            if -2 <= y.degree - x.degree <= 2:
                assert hom_dim(x, y) == derived_hom_oracle(rs, x, y), (x, y)
                pairs += 1
            base = x.degree - y.degree
            exts = ((i, derived_hom_oracle(rs, x, shift(y, i)))
                    for i in range(base - 2, base + 4))
            assert nonzero_exts(x, y) == tuple((i, d) for i, d in exts if d), (x, y)
    report("criterion 7 (hom oracle equivalence)", True, f"{pairs} pairs")


def test_criterion_8_sign_lemmas():
    forward = backward = 0
    for name, rs, m, _ in _criterion1_sets():
        for col in enumerate_kind(rs, "m-cluster-tilting", m):
            for _, sign, _ in mu_rev_steps(order_silting(col)):
                assert sign in (MutationSign.NEGATIVE, MutationSign.ORTHOGONAL)
                forward += 1
            cfg = silting_to_config(col)
            for _, sign, _ in mu_rev_inverse_steps(order_config(cfg)):
                assert sign in (MutationSign.NONNEGATIVE, MutationSign.ORTHOGONAL)
                backward += 1
    report("criterion 8 (sign lemmas)", True,
           f"{forward} forward and {backward} backward mutations")


def test_criterion_9_riedtmann_layer():
    details = []
    for name, tilting_count in (("A2", 2), ("A3", 5)):
        rs = SYSTEMS[name]
        minus = enumerate_kind(rs, "m-config-minus", 1)
        for col in minus:
            assert riedtmann_to_config(config_to_riedtmann(col)) == col
        oracle_count = len(enumerate_tilting_oracle(rs))
        assert oracle_count == tilting_count == len(minus)
        details.append(f"{name}: {len(minus)} configs = {oracle_count} tiltings")
    report("criterion 9 (riedtmann layer)", True, "; ".join(details))


def test_criterion_10_torsion_layer():
    invariance_steps = 0
    for name in ("A2", "A3"):
        rs = SYSTEMS[name]
        for m in (1, 2):
            window = WindowSpec(-1, m + 2)
            torsion_keys = {}
            for col in enumerate_kind(rs, "m-cluster-tilting", m):
                key = torsion_window(col, window)
                assert key not in torsion_keys, (name, m, col, torsion_keys[key])
                torsion_keys[key] = col
                current = order_silting(col)
                before = torsion_window(collection(current), window)
                for _, sign, after in mu_rev_steps(current):
                    assert sign is not MutationSign.NONNEGATIVE
                    now = torsion_window(collection(after), window)
                    assert now == before, (name, m, col)
                    invariance_steps += 1
    report("criterion 10 (torsion layer)", True,
           f"{invariance_steps} invariance checks; injectivity exhaustive")
