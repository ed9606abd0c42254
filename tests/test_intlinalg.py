"""Exact linear solves against the textbook elimination oracle."""
import random
from fractions import Fraction as F

from crl_atlas._intlinalg import solve

from oracles import gauss_kernel


def random_rational(rng: random.Random) -> F:
    return F(rng.randint(-9, 9), rng.randint(1, 4))


def random_matrix(rng: random.Random, n: int) -> list[list[F]]:
    return [[random_rational(rng) for _ in range(n)] for _ in range(n)]


def augmented_kernel(a: list[list[F]], b: list[F]) -> list[list[F]]:
    return gauss_kernel([row + [-v] for row, v in zip(a, b)])


class TestSolve:
    def test_nonsingular_systems_match_oracle(self):
        rng = random.Random(11)
        seen = 0
        while seen < 60:
            n = rng.randint(1, 6)
            a = random_matrix(rng, n)
            b = [random_rational(rng) for _ in range(n)]
            kernel = augmented_kernel(a, b)
            if len(kernel) != 1 or kernel[0][n] == 0:
                continue  # singular draw; covered below
            seen += 1
            x = solve(a, b)
            assert x == [v / kernel[0][n] for v in kernel[0][:n]]
            assert [sum(r * v for r, v in zip(row, x)) for row in a] == b

    def test_singular_systems_return_none(self):
        rng = random.Random(12)
        for trial in range(60):
            n = rng.randint(2, 6)
            a = random_matrix(rng, n)
            # the last row is a combination of the others, so A is singular
            weights = [random_rational(rng) for _ in range(n - 1)]
            a[-1] = [sum(w * row[c] for w, row in zip(weights, a)) for c in range(n)]
            x0 = [random_rational(rng) for _ in range(n)]
            b = [sum(r * v for r, v in zip(row, x0)) for row in a]
            if trial % 2:
                b[-1] += 1  # inconsistent: breaks the row relation
                assert all(v[n] == 0 for v in augmented_kernel(a, b))
            else:
                assert len(augmented_kernel(a, b)) >= 2
            assert solve(a, b) is None

    def test_zero_matrix_and_empty_system(self):
        assert solve([[F(0), F(0)], [F(0), F(0)]], [F(0), F(0)]) is None
        assert solve([[F(0), F(0)], [F(0), F(0)]], [F(1), F(0)]) is None
        assert solve([], []) == []

    def test_integer_entries_accepted(self):
        assert solve([[2, 1], [1, 3]], [3, 5]) == [F(4, 5), F(7, 5)]
