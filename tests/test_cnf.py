import pytest
from hypothesis import given, settings, strategies as st

from oracles import read_mapping, recount_stats, truth_table_satisfiable
from conftest import make_random_cnf
from satgp.cnf import (
    Cnf,
    DimacsError,
    compute_var_stats,
    parse_dimacs,
    preprocess_bcp,
    random_3sat,
    reorder,
    write_dimacs,
    write_mapping,
)
from satgp.rng import SplitMix64


class TestCnf:
    @pytest.mark.parametrize("num_vars,clauses,message", [
        (2, ((1, 0), (-1, 2)), r"clause \(1, 0\)"),
        (3, ((1, 2), (-4, 3)), r"clause \(-4, 3\) .* num_vars=3"),
        (0, ((1,),), r"clause \(1,\)"),
        (2, ((1.5, 2), (-1, -2)), r"clause \(1\.5, 2\) has a literal that is not an int"),
        (2, ((1, 2), (-1.0, -2)), r"clause \(-1\.0, -2\) has a literal that is not an int"),
        (2, ((True, 2), (-1, -2)), r"clause \(True, 2\) has a literal that is not an int"),
        (-1, (), "num_vars is -1"),
    ])
    def test_bad_formula_refused_when_made(self, num_vars, clauses, message):
        with pytest.raises(ValueError, match=message):
            Cnf(num_vars, clauses)

    def test_empty_formulas_accepted(self):
        assert Cnf(0, ()).num_clauses == 0
        assert Cnf(2, ((),)).clauses == ((),)


class TestParse:
    def test_basic(self):
        cnf = parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n")
        assert cnf.num_vars == 2
        assert cnf.clauses == ((1, 2), (-1, 2))

    def test_tautology_dropped(self):
        cnf = parse_dimacs("p cnf 1 2\n1 -1 0\n1 0\n")
        assert cnf.clauses == ((1,),)

    def test_variable_out_of_range(self):
        with pytest.raises(DimacsError, match="variable 4 exceeds declared 3"):
            parse_dimacs("p cnf 3 1\n4 0\n")

    def test_duplicate_literal_removed(self):
        cnf = parse_dimacs("p cnf 2 1\n1 1 2 1 0\n")
        assert cnf.clauses == ((1, 2),)

    def test_comments_crlf_and_multiline_clause(self):
        text = "c hello\r\np cnf 3 1\r\n1 2\r\n3 0\r\n"
        cnf = parse_dimacs(text)
        assert cnf.clauses == ((1, 2, 3),)

    def test_bytes_input(self):
        assert parse_dimacs(b"p cnf 1 1\n1 0\n").clauses == ((1,),)

    def test_satlib_percent_tail(self):
        cnf = parse_dimacs("p cnf 1 1\n1 0\n%\n0\n")
        assert cnf.clauses == ((1,),)

    def test_count_mismatch_warns_not_fails(self, caplog):
        with caplog.at_level("WARNING"):
            cnf = parse_dimacs("p cnf 2 5\n1 0\n")
        assert cnf.num_clauses == 1
        assert any("declares 5" in r.message for r in caplog.records)

    def test_malformed_header(self):
        with pytest.raises(DimacsError, match="header"):
            parse_dimacs("p dnf 2 1\n1 0\n")

    @pytest.mark.parametrize("text,message", [
        ("p cnf 1 1\np cnf 1 1\n1 0\n", "line 2: duplicate header"),
        ("p cnf x 1\n1 0\n", "line 1: malformed header 'p cnf x 1'"),
        ("p cnf 2 1.5\n1 0\n", "line 1: malformed header 'p cnf 2 1.5'"),
        ("p cnf 1_0 1\n1_0 -2 0\n", "line 1: malformed header 'p cnf 1_0 1'"),
        ("p cnf \u0661 1\n\u0661 0\n", "line 1: malformed header 'p cnf \u0661 1'"),
        ("p cnf +2 1\n1 0\n", "line 1: malformed header 'p cnf +2 1'"),
        ("pxyz cnf 1 1\n1 0\n", "line 1: malformed header 'pxyz cnf 1 1'"),
        ("p cnf -1 1\n", "line 1: negative counts in header"),
        ("p cnf 1 -1\n", "line 1: negative counts in header"),
        ("c only a comment\n", "line 1: missing 'p cnf' header"),
        ("", "line 1: missing 'p cnf' header"),
    ])
    def test_header_errors(self, text, message):
        with pytest.raises(DimacsError) as exc:
            parse_dimacs(text)
        assert str(exc.value) == message

    def test_clause_before_header(self):
        with pytest.raises(DimacsError, match="before"):
            parse_dimacs("1 0\np cnf 1 1\n")

    @pytest.mark.parametrize("text,message", [
        ("p cnf 1 1\nx 0\n", "line 2: non-integer token 'x'"),
        ("p cnf 10 1\n1_0 -2 0\n", "line 2: non-integer token '1_0'"),
        ("p cnf 1 1\n\u0661 0\n", "line 2: non-integer token '\u0661'"),
        ("p cnf 2 1\n+1 -2 0\n", "line 2: non-integer token '+1'"),
    ])
    def test_non_integer_token(self, text, message):
        with pytest.raises(DimacsError) as exc:
            parse_dimacs(text)
        assert str(exc.value) == message

    @settings(max_examples=150, deadline=None)
    @given(
        clauses=st.lists(
            st.lists(st.integers(1, 6).flatmap(lambda v: st.sampled_from((v, -v))),
                     max_size=4),
            max_size=8,
        ),
        data=st.data(),
    )
    def test_layout_variants_parse_like_clean_text(self, clauses, data):
        clean = "p cnf 6 %d\n" % len(clauses) + "".join(
            " ".join(map(str, c + [0])) + "\n" for c in clauses)
        draw = data.draw
        newline = draw(st.sampled_from(("\n", "\r\n")))
        gaps = st.sampled_from((" ", "\t", "  ", " \t"))
        tokens = [tok for c in clauses for tok in map(str, c + [0])]
        lines = [f"p cnf 6 {draw(st.integers(0, 12))}"]  # count may mismatch
        line = []
        for tok in tokens:
            line.append(tok)
            # Break anywhere: inside a clause, after it, or not at all.
            if draw(st.booleans()):
                lines.append(draw(gaps).join(line))
                line = []
            if draw(st.integers(0, 9)) == 0:
                lines.append(draw(st.sampled_from(("c comment", "c", "", "  c 1 2 0"))))
        lines.append(draw(gaps).join(line))
        if draw(st.booleans()):
            lines += ["%", "0", "garbage after the end"]
        text = newline.join(lines) + draw(st.sampled_from(("", newline)))
        assert parse_dimacs(text) == parse_dimacs(clean)

    def test_unterminated_clause(self):
        with pytest.raises(DimacsError, match="unterminated"):
            parse_dimacs("p cnf 2 1\n1 2\n")

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_roundtrip(self, seed):
        rng = SplitMix64(seed)
        cnf = make_random_cnf(rng, 1 + rng.randrange(12), rng.randrange(20))
        assert parse_dimacs(write_dimacs(cnf)) == cnf


class TestVarStats:
    def test_example(self):
        cnf = Cnf.from_lists(2, [[1, 2], [-1, 2]])
        stats = compute_var_stats(cnf)
        assert (stats.xn[1], stats.xp[1], stats.xc[1]) == (1, 1, 2)
        assert (stats.xn[2], stats.xp[2], stats.xc[2]) == (0, 2, 2)

    def test_empty(self):
        stats = compute_var_stats(Cnf(3, ()))
        assert stats.xc == [0, 0, 0, 0]

    def test_against_recount_oracle(self):
        rng = SplitMix64(11)
        for _ in range(100):
            cnf = make_random_cnf(rng, 2 + rng.randrange(10), rng.randrange(25))
            stats = compute_var_stats(cnf)
            xn, xp, xc = recount_stats(cnf)
            for v in range(1, cnf.num_vars + 1):
                assert stats.xn[v] == xn[v]
                assert stats.xp[v] == xp[v]
                assert stats.xc[v] == xc[v]

    def test_totals_match_clause_widths(self):
        rng = SplitMix64(12)
        for _ in range(20):
            cnf = make_random_cnf(rng, 8, 15)
            stats = compute_var_stats(cnf)
            assert sum(stats.xc) == sum(len(c) for c in cnf.clauses)


class TestPreprocessBcp:
    def test_unit_chain_satisfied(self):
        cnf = Cnf.from_lists(3, [[1], [-1, 2], [-2, 3]])
        reduced, verdict, forced = preprocess_bcp(cnf)
        assert verdict == "satisfied"
        assert forced == [1, 2, 3]
        assert reduced.clauses == ()

    def test_contradiction(self):
        _, verdict, _ = preprocess_bcp(Cnf.from_lists(1, [[1], [-1]]))
        assert verdict == "unsatisfiable"

    def test_no_units_untouched(self):
        cnf = Cnf.from_lists(3, [[1, 2], [-1, 3]])
        reduced, verdict, forced = preprocess_bcp(cnf)
        assert verdict == "reduced"
        assert forced == []
        assert reduced == cnf

    def test_idempotent(self):
        rng = SplitMix64(21)
        for _ in range(50):
            cnf = make_random_cnf(rng, 2 + rng.randrange(8), 1 + rng.randrange(18))
            once, verdict, _ = preprocess_bcp(cnf)
            if verdict != "reduced":
                continue
            twice, verdict2, forced2 = preprocess_bcp(once)
            assert verdict2 == "reduced"
            assert forced2 == []
            assert twice == once

    def test_equisatisfiable_with_original(self):
        rng = SplitMix64(22)
        checked = 0
        for _ in range(200):
            cnf = make_random_cnf(rng, 2 + rng.randrange(12), 1 + rng.randrange(25))
            reduced, verdict, _ = preprocess_bcp(cnf)
            original_sat = truth_table_satisfiable(cnf)
            if verdict == "unsatisfiable":
                assert original_sat is False
            elif verdict == "satisfied":
                assert original_sat is True
            else:
                assert truth_table_satisfiable(reduced) == original_sat
            checked += 1
        assert checked == 200

    def test_preserves_surviving_clause_order(self):
        cnf = Cnf.from_lists(4, [[2, 3], [1], [3, 4], [-1, 2, 3]])
        reduced, verdict, forced = preprocess_bcp(cnf)
        assert verdict == "reduced"
        assert forced == [1]
        assert reduced.clauses == ((2, 3), (3, 4), (2, 3))


class TestRandom3Sat:
    def test_counts_refused(self):
        with pytest.raises(ValueError, match="at least 3 variables"):
            random_3sat(2, 5, seed=0)
        with pytest.raises(ValueError, match="num_clauses >= 0, got -1"):
            random_3sat(5, -1, seed=0)
        assert random_3sat(5, 0, seed=0) == Cnf(5, ())


class TestReorder:
    def test_deterministic(self):
        cnf = random_3sat(15, 40, seed=5)
        a, map_a = reorder(cnf, 99)
        b, map_b = reorder(cnf, 99)
        assert a == b
        assert map_a.var_map == map_b.var_map
        assert map_a.inverted == map_b.inverted
        assert map_a.clause_map == map_b.clause_map

    def test_negative_seed_is_an_ordinary_shuffle(self):
        cnf = random_3sat(10, 20, seed=1)
        out, mapping = reorder(cnf, -1)
        assert out != cnf
        assert mapping.var_map != list(range(cnf.num_vars + 1))
        assert out == reorder(cnf, 2**64 - 1)[0]  # seeds are taken mod 2**64
        for new_idx, clause in enumerate(out.clauses):
            original = cnf.clauses[mapping.clause_map[new_idx]]
            assert tuple(mapping.map_literal(l) for l in original) == clause

    def test_mapping_is_a_bijection_taking_each_clause_to_its_twin(self):
        rng = SplitMix64(31)
        for trial in range(30):
            cnf = make_random_cnf(rng, 2 + rng.randrange(10), 1 + rng.randrange(20))
            out, mapping = reorder(cnf, trial)
            assert sorted(mapping.var_map) == list(range(cnf.num_vars + 1))
            assert sorted(mapping.clause_map) == list(range(len(cnf.clauses)))
            assert len(mapping.inverted) == cnf.num_vars + 1
            for new_idx, clause in enumerate(out.clauses):
                original = cnf.clauses[mapping.clause_map[new_idx]]
                assert tuple(mapping.map_literal(l) for l in original) == clause
                assert [mapping.map_literal(-l) for l in original] == [-l for l in clause]

    def test_preserves_shape(self):
        cnf = random_3sat(12, 30, seed=3)
        out, _ = reorder(cnf, 17)
        assert out.num_vars == cnf.num_vars
        assert len(out.clauses) == len(cnf.clauses)
        assert sorted(map(len, out.clauses)) == sorted(map(len, cnf.clauses))

    def test_equisatisfiable_100_instances(self):
        rng = SplitMix64(32)
        for trial in range(100):
            cnf = make_random_cnf(
                rng, 3 + rng.randrange(10), 1 + rng.randrange(22), min_width=1
            )
            out, _ = reorder(cnf, trial * 7 + 1)
            assert truth_table_satisfiable(out) == truth_table_satisfiable(cnf)

    def test_mapping_sidecar_roundtrip(self):
        cnf = random_3sat(9, 18, seed=8)
        _, mapping = reorder(cnf, 44)
        recovered = read_mapping(write_mapping(mapping))
        assert recovered.var_map == mapping.var_map
        assert recovered.inverted == mapping.inverted
        assert recovered.clause_map == mapping.clause_map
