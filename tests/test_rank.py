"""Waring rank over the complex and real numbers, with certificates."""
import random
from fractions import Fraction as F
from math import comb

import pytest

import crl_atlas.apolarity
import crl_atlas.rank
from crl_atlas.apolarity import apply_operator
from crl_atlas.poly_core import (
    BinaryForm,
    discriminant,
    is_real_rooted,
    is_squarefree,
)
from crl_atlas.rank import (
    RankCertificate,
    SearchBudget,
    _disc_poly_in_t,
    complex_rank,
    real_rank,
    rank_histogram,
)

from oracles import (
    form_add,
    gauss_kernel,
    gl2_act,
    interpolate,
    oracle_apply,
    oracle_is_real_rooted,
    random_form,
)


def form(*cs) -> BinaryForm:
    coeffs = tuple(F(c) for c in cs)
    return BinaryForm(len(coeffs) - 1, coeffs)


def power_of_x(d: int) -> BinaryForm:
    return BinaryForm(d, tuple(F(1 if i == 0 else 0) for i in range(d + 1)))


def monomial(a: int, b: int) -> BinaryForm:
    """x^a y^b."""
    return BinaryForm(a + b, tuple(F(1 if i == b else 0) for i in range(a + b + 1)))


def monomial_xd1y(d: int) -> BinaryForm:
    return monomial(d - 1, 1)


def hankel_kernel(f: BinaryForm, r: int) -> list[list[F]]:
    """Kernel of the degree-r pairing matrix, by the oracle elimination."""
    a = [c / comb(f.degree, i) for i, c in enumerate(f.coeffs)]
    rows = [[a[i + j] for j in range(r + 1)] for i in range(f.degree - r + 1)]
    return gauss_kernel(rows)


def check_witness(cert: RankCertificate, f: BinaryForm) -> None:
    """Independent re-validation of a rank certificate's witness."""
    w = cert.witness
    assert w.degree == cert.value
    assert oracle_apply(w, f).is_zero
    assert is_squarefree(w)
    if cert.field == "real":
        assert oracle_is_real_rooted(w)


THREE_POWERS_QUINTIC = form(2, 2, 4, 8, 16, 33)  # x^5 + y^5 + (x+2y)^5


class TestComplexRank:
    def test_pure_power_is_rank_one(self):
        for d in range(1, 9):
            cert = complex_rank(power_of_x(d))
            assert cert.value == 1
            assert cert.field == "complex"
            assert cert.lower_bound_kind == "exact"
            check_witness(cert, power_of_x(d))

    @pytest.mark.parametrize("d", range(3, 10))
    def test_near_power_monomial_hits_top_rank(self, d):
        # x^a y^b with 1 <= b < a has complex rank a + 1
        # (Carlini-Catalisano-Geramita 2012): its first kernel is Dy^(b+1),
        # not squarefree, so Sylvester's second pencil decides it
        for b in range(1, (d + 1) // 2):
            a = d - b
            f = monomial(a, b)
            cert = complex_rank(f)
            assert cert.value == a + 1
            check_witness(cert, f)
            # independent refutation of every smaller rank: each kernel basis
            # vector has no Dx^(r-j) Dy^j component for j <= b, so the whole
            # kernel is divisible by Dy^(b+1) and contains nothing squarefree
            for r in range(1, a + 1):
                for vec in hankel_kernel(f, r):
                    assert all(v == 0 for v in vec[: b + 1])

    @pytest.mark.parametrize("d", range(4, 9))
    def test_sum_of_two_powers_is_rank_two(self, d):
        # first kernel <g1> of degree 2 < e2 = d with g1 squarefree
        two_powers = form_add(monomial(d, 0), monomial(0, d))
        # x^d + y^d and (x + y)^d + (x - 2y)^d
        for f in (two_powers, gl2_act(two_powers, (1, 1, 1, -2))):
            cert = complex_rank(f)
            assert cert.value == 2
            check_witness(cert, f)

    def test_invariant_under_gl2(self):
        # the complex rank of g.f equals that of f for invertible g; the
        # forms cover all three of Sylvester's branches
        rng = random.Random(2200)
        forms = []
        for i in range(200):
            d = rng.randint(2, 8)
            if i % 3 == 0:
                b = rng.randint(0, d)
                forms.append(monomial(d - b, b))
            elif i % 3 == 1:
                roots = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d)]
                forms.append(BinaryForm.from_roots(roots))
            else:
                forms.append(random_form(rng, d, spread=5))
        for f in forms:
            while True:
                g = tuple(rng.randint(-3, 3) for _ in range(4))
                if g[0] * g[3] != g[1] * g[2]:
                    break
            moved = gl2_act(f, g)
            cert, moved_cert = complex_rank(f), complex_rank(moved)
            assert moved_cert.value == cert.value, (f, g)
            check_witness(cert, f)
            check_witness(moved_cert, moved)

    def test_generic_forms_hit_generic_rank(self):
        rng = random.Random(40)
        for d in range(3, 9):
            for _ in range(15):
                f = random_form(rng, d)
                cert = complex_rank(f)
                assert cert.value == (d + 2) // 2  # ceil((d+1)/2)
                check_witness(cert, f)

    def test_three_powers_quintic(self):
        cert = complex_rank(THREE_POWERS_QUINTIC)
        assert cert.value == 3
        check_witness(cert, THREE_POWERS_QUINTIC)

    def test_generic_quartic_builds_each_kernel_once(self, monkeypatch):
        # r = 1, 2 come back empty, r = 3 is the pencil that holds the witness
        calls = []
        original = crl_atlas.apolarity.apolar_kernel

        def counted(f, r):
            calls.append(r)
            return original(f, r)

        # first_kernel (in apolarity) builds r = 1, 2, 3; rank builds the rest
        for module in (crl_atlas.apolarity, crl_atlas.rank):
            monkeypatch.setattr(module, "apolar_kernel", counted)
        cert = complex_rank(form(1, 3, -2, 5, 7))
        assert cert.value == 3
        assert calls == [1, 2, 3]

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            complex_rank(BinaryForm(3, tuple(F(0) for _ in range(4))))

    def test_always_exact(self):
        rng = random.Random(41)
        for _ in range(30):
            cert = complex_rank(random_form(rng, rng.randint(1, 8)))
            assert cert.lower_bound_kind == "exact"


class TestRealRank:
    def test_real_rooted_quintic_has_top_rank(self):
        f = BinaryForm.from_roots([F(i) for i in range(1, 6)])
        cert = real_rank(f)
        assert cert.value == 5
        assert cert.lower_bound_kind == "exact"
        check_witness(cert, f)

    @pytest.mark.parametrize("d", range(3, 7))
    def test_near_power_monomial_real_rank(self, d):
        f = monomial_xd1y(d)
        cert = real_rank(f)
        assert cert.value == d
        assert cert.lower_bound_kind == "exact"
        check_witness(cert, f)
        # refutations cover every rank below d, in scan order
        assert [r for r, _ in cert.refutations] == list(range(1, d))
        # independent exact refutation (same Dy^2 divisibility as complex)
        for r in range(2, d):
            for vec in hankel_kernel(f, r):
                assert vec[0] == 0 and vec[1] == 0

    def test_three_powers_quintic_rank_three(self):
        cert = real_rank(THREE_POWERS_QUINTIC)
        assert cert.value == 3
        assert cert.lower_bound_kind == "exact"
        check_witness(cert, THREE_POWERS_QUINTIC)
        assert cert.refutations == ((1, "empty kernel"), (2, "empty kernel"))

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            real_rank(BinaryForm(2, (F(0), F(0), F(0))))

    def test_real_at_least_complex(self):
        rng = random.Random(42)
        for _ in range(25):
            f = random_form(rng, rng.randint(3, 6))
            c = complex_rank(f)
            r = real_rank(f)
            assert r.value >= c.value
            if is_real_rooted(c.witness):
                assert r.value == c.value

    def test_homogeneity(self):
        rng = random.Random(43)
        for _ in range(10):
            f = random_form(rng, rng.randint(3, 6))
            base = real_rank(f).value
            for c in (F(2), F(-1), F(3, 7)):
                assert real_rank(f.scale(c)).value == base

    def test_refutation_scan_is_monotone(self):
        rng = random.Random(44)
        for _ in range(20):
            f = random_form(rng, rng.randint(3, 6))
            cert = real_rank(f)
            rs = [r for r, _ in cert.refutations]
            assert rs == sorted(rs)
            assert all(r < cert.value for r in rs)
            if rs:
                assert rs[-1] == cert.value - 1

    def test_exact_values_invariant_under_gl2(self):
        # real rank is invariant under an invertible real change of (x, y),
        # so two certificates whose lower bounds are both exact must agree;
        # the forms are random, sums of a few powers and real-rooted
        rng = random.Random(2600)
        compared = set()
        for d in range(3, 7):
            for k in range(9):
                if k % 3 == 0:
                    f = random_form(rng, d, spread=9)
                elif k % 3 == 1:
                    f = BinaryForm(d, (F(0),) * (d + 1))
                    while f.is_zero:
                        for _ in range(rng.randint(2, d // 2 + 1)):
                            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                            f = f + gl2_act(power_of_x(d), (a, b, 0, 1))
                else:
                    roots = rng.sample(range(-6, 7), d)
                    f = BinaryForm.from_roots([F(t, 2) for t in roots])
                while True:
                    g = tuple(rng.randint(-3, 3) for _ in range(4))
                    if g[0] * g[3] != g[1] * g[2]:
                        break
                moved = gl2_act(f, g)
                cert, moved_cert = real_rank(f), real_rank(moved)
                check_witness(cert, f)
                check_witness(moved_cert, moved)
                if cert.lower_bound_kind == moved_cert.lower_bound_kind == "exact":
                    assert moved_cert.value == cert.value, (f, g)
                    compared.add((d, cert.value))
        assert len(compared) >= 10, compared

    def test_bounds_for_random_forms(self):
        rng = random.Random(45)
        for _ in range(20):
            d = rng.randint(3, 6)
            f = random_form(rng, d)
            cert = real_rank(f)
            assert (d + 2) // 2 <= cert.value <= d
            check_witness(cert, f)


class TestPencilDecision:
    def test_agrees_with_dense_grid_on_degree_six(self):
        # at degree 6 the two-dimensional kernel sits at r = 4; the exact
        # pencil decision must dominate a dense 1000-point slice sample
        rng = random.Random(46)
        tested = 0
        grid_ts = [F(k, 25) for k in range(-500, 501)]  # 1001 points
        while tested < 100:
            f = random_form(rng, 6)
            kern = hankel_kernel(f, 4)
            if len(kern) != 2:
                continue
            tested += 1
            q0 = BinaryForm(4, tuple(kern[0]))
            q1 = BinaryForm(4, tuple(kern[1]))
            grid_hit = None
            for t in grid_ts:
                cand = BinaryForm(
                    4, tuple(a + t * b for a, b in zip(q0.coeffs, q1.coeffs))
                )
                if not cand.is_zero and is_real_rooted(cand):
                    grid_hit = cand
                    break
            if grid_hit is None and not q1.is_zero and is_real_rooted(q1):
                grid_hit = q1  # the point at infinity of the pencil
            cert = real_rank(f)
            if grid_hit is not None:
                assert cert.value <= 4, (f, grid_hit)
            if cert.value == 4:
                check_witness(cert, f)

    def test_pencil_witness_certified_exactly(self):
        # x^6 + y^6 + (x+2y)^6 + (x-3y)^6 has real rank 4, decided by the
        # exact pencil at the two-dimensional r = 4 kernel
        base = form(3, -6, 195, -380, 1455, -1266, 794)
        cert = real_rank(base)
        assert cert.value == 4
        assert cert.lower_bound_kind == "exact"
        check_witness(cert, base)
        assert [r for r, _ in cert.refutations] == [1, 2, 3]


class TestPencilDiscriminant:
    """disc(q0 + t q1) in t, against plain Lagrange interpolation."""

    @staticmethod
    def interpolated(q0: BinaryForm, q1: BinaryForm) -> list:
        r = q0.degree
        nodes = [F(k) for k in range(max(2 * r - 1, 1))]
        return interpolate(
            [(t, discriminant(q0 + q1.scale(t))) for t in nodes]
        )[::-1]

    @pytest.mark.parametrize("r", range(1, 7))
    def test_integer_pencils(self, r):
        rng = random.Random(60 + r)
        for _ in range(6):
            q0 = form(*(rng.randint(-9, 9) for _ in range(r + 1)))
            q1 = form(*(rng.randint(-9, 9) for _ in range(r + 1)))
            got = _disc_poly_in_t(q0, q1)
            assert got == self.interpolated(q0, q1)
            assert all(isinstance(c, int) for c in got)

    @pytest.mark.parametrize("r", range(1, 7))
    def test_rational_pencils(self, r):
        rng = random.Random(70 + r)
        for _ in range(6):
            q0 = random_form(rng, r)
            q1 = random_form(rng, r)
            assert _disc_poly_in_t(q0, q1) == self.interpolated(q0, q1)

    @pytest.mark.parametrize("r", range(2, 7))
    def test_identically_zero_discriminant(self, r):
        # every member shares the double root x = 0
        rng = random.Random(80 + r)
        square = BinaryForm.from_roots([F(0), F(0)])
        q0 = square * random_form(rng, r - 2)
        q1 = square * random_form(rng, r - 2)
        assert _disc_poly_in_t(q0, q1) == [] == self.interpolated(q0, q1)

    def test_pencil_through_a_square(self):
        # q0 = x^2 - y^2, q1 = 2xy: disc(q0 + t q1) = -4 (1 + t^2)
        got = _disc_poly_in_t(form(1, 0, -1), form(0, 2, 0))
        assert got == [-4, 0, -4]


class TestRankHistogram:
    def test_cubic_support_and_counts(self):
        counts = rank_histogram(3, 60, seed=0)
        assert set(counts) <= {2, 3}
        assert counts[2] >= 5 and counts[3] >= 5
        assert sum(counts.values()) == 60

    def test_quartic_support(self):
        counts = rank_histogram(4, 40, seed=1)
        assert set(counts) <= {3, 4}
        assert sum(counts.values()) == 40

    def test_thread_count_does_not_change_results(self):
        serial = rank_histogram(3, 30, seed=7)
        threaded = rank_histogram(3, 30, seed=7, threads=2)
        assert serial == threaded

    def test_seed_changes_draws(self):
        a = rank_histogram(3, 30, seed=0)
        b = rank_histogram(3, 30, seed=999)
        assert sum(a.values()) == sum(b.values()) == 30

    def test_deterministic_repeat(self):
        assert rank_histogram(4, 20, seed=5) == rank_histogram(4, 20, seed=5)

    def test_uniform_distribution_accepted(self):
        counts = rank_histogram(3, 20, seed=0, distribution="uniform")
        assert sum(counts.values()) == 20
        assert set(counts) <= {2, 3}

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            rank_histogram(0, 5)
        with pytest.raises(ValueError):
            rank_histogram(3, -1)
        with pytest.raises(ValueError):
            rank_histogram(3, 5, distribution="cauchy")


class TestCertificates:
    def test_json_shape(self):
        cert = real_rank(THREE_POWERS_QUINTIC)
        data = cert.to_json()
        assert list(data) == [
            "value",
            "field",
            "witness",
            "lower_bound_kind",
            "budget_used",
        ]
        assert data["witness"]["dual"] is True
        assert data["value"] == 3

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(samples=-1)
        with pytest.raises(ValueError):
            SearchBudget(restarts=-2)

    def test_budget_is_threaded_through(self):
        tiny = SearchBudget(samples=10, restarts=2)
        cert = real_rank(THREE_POWERS_QUINTIC, budget=tiny)
        assert cert.value == 3  # exact paths ignore the randomized budget
