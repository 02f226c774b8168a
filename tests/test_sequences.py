from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liminfdim.sequences import (
    AlternatingSpec,
    ContractiveSpec,
    ExplicitSpec,
    GenerationError,
    PowerSpec,
    QSequence,
    RegimeStatus,
    exponent_stats,
    generate,
    reindex_even,
    validate_regime,
)

from reference import enclosure_contains


class TestGenerate:
    def test_power_family(self):
        qs = generate(PowerSpec(4, F(4)), 3)
        assert qs.terms == (4, 256, 4294967296)

    def test_power_family_fractional_growth(self):
        qs = generate(PowerSpec(10, F(3, 2)), 4)
        # oracle: ceil by hand; 10^1.5 = 31.62..., 32^1.5 = 181.01..., 182^1.5 = 2455.1...
        assert qs.terms == (10, 32, 182, 2456)

    def test_contractive_window(self):
        qs = generate(ContractiveSpec(64, F(1)), 2)
        assert qs.terms == (64, 512)
        # window check by direct arithmetic
        assert 64 ** 2 / 8 <= 512 <= 64 ** 2 / 4

    def test_contractive_window_holds_along_prefix(self):
        qs = generate(ContractiveSpec(64, F(1)), 4)
        for a, b in zip(qs.terms, qs.terms[1:]):
            assert F(a ** 2, 8) <= b <= F(a ** 2, 4)

    @settings(max_examples=40, deadline=None)
    @given(q1=st.integers(65, 2000), tau=st.sampled_from([F(1, 2), F(2, 3), F(1), F(3, 2)]))
    def test_contractive_step_is_the_least_in_its_window(self, q1, tau):
        # with q**tau > 8 the least integer at or above x = q**(1+tau)/8 exceeds
        # q and lies at or below x/4 (x >= 8), so every step exists
        qs = generate(ContractiveSpec(q1, tau), 4)
        a, b = (1 + tau).numerator, (1 + tau).denominator
        for q, nxt in zip(qs.terms, qs.terms[1:]):
            assert (8 * (nxt - 1)) ** b < q ** a <= (8 * nxt) ** b
            assert (4 * nxt) ** b <= q ** a

    def test_contractive_too_small_reports_index(self):
        with pytest.raises(GenerationError) as exc:
            generate(ContractiveSpec(2, F(1, 2)), 2)
        assert exc.value.index == 2

    def test_explicit(self):
        qs = generate(ExplicitSpec((3, 81)), 2)
        assert qs.terms == (3, 81)
        with pytest.raises(GenerationError):
            generate(ExplicitSpec((3, 81)), 3)

    def test_alternating_structure(self):
        qs = generate(AlternatingSpec(3, F(1), F(5)), 4)
        assert qs.terms[1] == 3 ** 5
        # even step preserves divisibility and the contractive window
        q2, q3 = qs.terms[1], qs.terms[2]
        assert q3 % q2 == 0
        assert F(q2 ** 2, 8) <= q3 <= F(q2 ** 2, 4)
        # next odd step is the eta power again
        assert qs.terms[3] == q3 ** 5

    def test_deterministic(self):
        a = generate(AlternatingSpec(3, F(1), F(5)), 5)
        b = generate(AlternatingSpec(3, F(1), F(5)), 5)
        assert a == b

    def test_rejects_invalid_terms(self):
        with pytest.raises(ValueError):
            QSequence((1, 5))
        with pytest.raises(ValueError):
            QSequence((5, 5))


class TestExponentStats:
    def test_exact_power_chain(self):
        stats = exponent_stats(QSequence((2, 16, 65536)))
        assert [h.lo.as_fraction() for h in stats.h_list] == [4, 4]
        assert all(h.is_exact for h in stats.h_list)
        assert [a.lo.as_fraction() for a in stats.alpha_list] == [F(1, 4), F(5, 16)]
        assert stats.h_prefix.lo.as_fraction() == 4
        assert stats.alpha_last.lo.as_fraction() == F(5, 16)

    def test_simple_ratio(self):
        stats = exponent_stats(QSequence((10, 1000)))
        assert len(stats.h_list) == 1
        assert stats.h_list[0].is_exact and stats.h_list[0].lo.as_fraction() == 3
        assert enclosure_contains(stats.alpha_list[0], F(1, 3))
        assert stats.alpha_list[0].width() <= F(1, 2 ** 100)

    def test_single_term(self):
        stats = exponent_stats(QSequence((7,)))
        assert stats.h_list == () and stats.alpha_list == ()
        assert stats.h_prefix is None and stats.alpha_last is None

    def test_power_family_alpha_converges_to_geometric_limit(self):
        # alpha_J -> 1/(c-1) monotonically from below for q_{j+1} = q_j^c
        for c in (F(2), F(3), F(4)):
            qs = generate(PowerSpec(4, c), 6)
            stats = exponent_stats(qs)
            limit = F(1, c - 1)
            vals = [a.midpoint() for a in stats.alpha_list]
            assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
            assert abs(stats.alpha_last.midpoint() - limit) <= F(2) / c ** (len(qs) - 1)

    def test_fractional_growth_alpha_near_limit(self):
        # at c = 3/2 the geometric bound 2/c^(J-1) is tight, so allow the
        # ceil-rounding perturbation a little headroom
        qs = generate(PowerSpec(16, F(3, 2)), 8)
        stats = exponent_stats(qs)
        assert abs(stats.alpha_last.midpoint() - 2) <= F(3) / F(3, 2) ** 7


class TestRegime:
    def test_pass(self):
        res = validate_regime(QSequence((2, 16, 65536)), F(1))
        assert res.status is RegimeStatus.PASS and bool(res)

    def test_fail_requires_strict_inequality(self):
        res = validate_regime(QSequence((2, 16, 65536)), F(3))
        assert res.status is RegimeStatus.FAIL and res.index == 1

    def test_single_term_vacuous(self):
        assert validate_regime(QSequence((5,)), F(10)).status is RegimeStatus.PASS

    def test_alternating_reindexed_regime(self):
        # the reindexed subsequence has step exponent ~ eta*(1+tau), which
        # exceeds (1+tau)^2 = tau_hat + 1 whenever eta > 1+tau
        for q1, tau, eta in [(3, F(1), F(5)), (3, F(2), F(4))]:
            qs = generate(AlternatingSpec(q1, tau, eta), 6)
            sub, tau_hat = reindex_even(qs, tau)
            assert tau_hat == tau * (2 + tau)
            assert validate_regime(sub, tau_hat).status is RegimeStatus.PASS

    def test_alternating_marginal_eta_not_converged_at_small_depth(self):
        # eta barely above 1+tau: the finite prefix sits below the asymptotic
        # exponent eta*(1+tau), so the honest finite-depth check still fails
        qs = generate(AlternatingSpec(64, F(1), F(21, 10)), 6)
        sub, tau_hat = reindex_even(qs, F(1))
        assert validate_regime(sub, tau_hat).status is RegimeStatus.FAIL

    def test_indeterminate_outcome_prompts_higher_precision(self):
        # pick tau so that tau+1 lands inside the coarse enclosure of the
        # step exponent; the check must refuse to decide at that precision
        qs = QSequence((2, 6))
        h = exponent_stats(qs, 16).h_list[0]
        mid = (h.lo.as_fraction() + h.hi.as_fraction()) / 2
        res = validate_regime(qs, mid - 1, prec=16)
        assert res.status is RegimeStatus.INDETERMINATE and res.index == 1
        assert validate_regime(qs, mid - 1, prec=128).status is not RegimeStatus.INDETERMINATE


class TestReindex:
    def test_tau_map(self):
        qs = QSequence((2, 4, 16, 256))
        _, tau_hat = reindex_even(qs, F(1))
        assert tau_hat == 3
        _, tau_hat = reindex_even(qs, F(2))
        assert tau_hat == 8

    def test_selects_even_positions(self):
        qs = QSequence((2, 5, 11, 300))
        sub, _ = reindex_even(qs, F(1))
        assert sub.terms == (5, 300)
