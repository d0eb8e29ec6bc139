"""The mutant registry: hand-written faults that the named tests must catch.

Each mutant replaces one exact text in one module of the ``matchgame``
package by another.  Applied alone, it must make at least one of its
``killers`` (pytest node ids, relative to the repository root) fail.
``tests/test_mutants.py`` checks in tier-1 that every old text still occurs
exactly once, so the registry breaks loudly when the code moves;
``tests/run_mutants.py`` applies the mutants and runs their killers.

A change that adds a fast path or a check adds its mutant here.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    id: str
    file: str  # relative to the matchgame package directory
    old: str
    new: str
    killers: tuple[str, ...]


MUTANTS = (
    Mutant(
        "rank-radix-m-minus-2t",
        "matchings.py",
        "prev, covered, rank, radix = -1, 0, 0, m - 1",
        "prev, covered, rank, radix = -1, 0, 0, m",
        ("tests/test_matchings.py::test_rank_is_the_enumeration_index",),
    ),
    Mutant(
        "rank-counts-covered-vertices",
        "matchings.py",
        "rank = rank * radix + (~covered & ((1 << j) - (2 << i))).bit_count()",
        "rank = rank * radix + (covered & ((1 << j) - (2 << i))).bit_count()",
        ("tests/test_matchings.py::test_rank_is_the_enumeration_index",),
    ),
    Mutant(
        "rank-normalise-keeps-none",
        "matchings.py",
        "            self._normalise()\n            rank = _canonical_rank(self.edges)\n",
        "            self._normalise()\n",
        (
            "tests/test_matchings.py::TestConstructorChecks"
            "::test_enumerated_matchings_equal_constructed_ones",
        ),
    ),
    Mutant(
        "canonical-pass-without-coverage",
        "matchings.py",
        "return rank if covered == (1 << m) - 1 else None",
        "return rank",
        ("tests/test_matchings.py::TestConstructorChecks::test_messages",),
    ),
    Mutant(
        "duplicate-names-smallest-rank-repeat",
        "strategies.py",
        "k = np.setdiff1d(np.arange(len(matchings)), first)[0]",
        "repeats = np.setdiff1d(np.arange(len(matchings)), first)\n"
        "            k = repeats[ranks[repeats].argmin()]",
        (
            "tests/test_strategy_tables.py::TestArrayChecks"
            "::test_first_repeat_in_input_order_is_named",
        ),
    ),
    Mutant(
        "edge-ids-off-by-one",
        "search.py",
        "(ei * (2 * m - 1 - ei) // 2 + ej - ei - 1)",
        "(ei * (2 * m - 1 - ei) // 2 + ej - ei)",
        ("tests/test_search.py::test_edge_ids_index_the_pairs",),
    ),
    Mutant(
        "moved-without-old-slot",
        "search.py",
        "return agree - side[:, flip[self._slot(k, old)]] + side[:, flip[self._slot(k, new)]]",
        "return agree + side[:, flip[self._slot(k, new)]]",
        ("tests/test_search.py::TestRankOneUpdate::test_moved_rows_equal_full_rescoring",),
    ),
    Mutant(
        "draws-without-rejection",
        "search.py",
        "        values = values[values < bound]\n",
        "",
        ("tests/test_search.py::TestBatchedDraws::test_equals_randrange",),
    ),
    Mutant(
        "alice-line-without-x-length",
        "strategy_io.py",
        "                    and len(fields[1]) == m\n",
        "",
        (
            "tests/test_strategy_io.py::TestAgainstReferenceParser"
            "::test_mutated_files_parse_alike",
        ),
    ),
    Mutant(
        "bob-line-without-duplicate-check",
        "strategy_io.py",
        "                if y in bob:\n",
        "                if False:\n",
        ("tests/test_strategy_io.py::TestDiagnostics::test_duplicate_bob_line",),
    ),
    Mutant(
        "orbit-multiplier",
        "search.py",
        "self.orbit = 1 << (n + 1)",
        "self.orbit = 1 << n",
        (
            "tests/test_search.py::TestOrbitScoring"
            "::test_reduced_count_equals_full_count_and_recount",
        ),
    ),
    Mutant(
        "c-reverse-bit-order",
        "game.py",
        "<< b for b in range(n))",
        "<< (n - 1 - b) for b in range(n))",
        ("tests/test_strategies.py::TestAnchorStrategy::test_alice_values",),
    ),
    Mutant(
        "rep-without-complement",
        "game.py",
        "return x ^ shift[c] ^ (k * ((1 << m) - 1)), k, c",
        "return x ^ shift[c], k, c",
        ("tests/test_search.py::TestOrbitScoring::test_representatives_meet_every_orbit_once",),
    ),
    Mutant(
        "success-odd-as-even",
        "strategies.py",
        "len(even) * (size - ones) + len(odd) * ones",
        "(len(even) + len(odd)) * (size - ones)",
        (
            "tests/test_strategies.py::TestPerEdgeScoring"
            "::test_random_total_strategies_match_the_oracles",
        ),
    ),
    Mutant(
        "parity-low-bit",
        "game.py",
        "[v.bit_count() & 1 for v in range(1 << n)]",
        "[v & 1 for v in range(1 << n)]",
        (
            "tests/test_search.py::TestOrbitScoring"
            "::test_reduced_count_equals_full_count_and_recount",
        ),
    ),
    Mutant(
        "integer-fields-kept-as-given",
        "game.py",
        "        return operator.index(value)\n",
        "        return value\n",
        ("tests/test_game.py::test_integer_fields",),
    ),
    Mutant(
        "bit-string-length-skips-index",
        "game.py",
        "if type(self.value) is not int or type(self.length) is not int:",
        "if type(self.value) is not int:",
        ("tests/test_game.py::test_integer_fields",),
    ),
    Mutant(
        "edge-members-unchecked",
        "game.py",
        "    if not isinstance(e, Edge):\n",
        "    if False:\n",
        (
            "tests/test_matchings.py::TestConstructorChecks::test_messages",
            "tests/test_coloring.py::TestGraphBasics::test_members_must_be_edges",
        ),
    ),
    Mutant(
        "canonical-pass-lets-attribute-error-out",
        "matchings.py",
        "        except AttributeError:",
        "        except KeyError:",
        ("tests/test_matchings.py::TestConstructorChecks::test_messages",),
    ),
    Mutant(
        "parity-bit-unchecked",
        "coloring.py",
        "        if bit not in (0, 1):\n",
        "        if False:\n",
        ("tests/test_coloring.py::TestCountColorings::test_domain_mismatch_rejected",),
    ),
    Mutant(
        "zero-total-accepted",
        "strategies.py",
        "        if self.total <= 0:\n",
        "        if False:\n",
        ("tests/test_strategies.py::TestSuccessRatio::test_bounds_checked",),
    ),
    Mutant(
        "alice-shape-unchecked",
        "strategies.py",
        "    if values.shape != (1 << m,):\n",
        "    if False:\n",
        ("tests/test_strategy_tables.py::TestArrayChecks::test_shapes_and_dtypes_checked",),
    ),
    Mutant(
        "amplitudes-not-square",
        "quantum.py",
        "        if amps.ndim != 2 or amps.shape[0] != amps.shape[1]:\n",
        "        if False:\n",
        ("tests/test_quantum.py::TestSharedState::test_norm_validated",),
    ),
    Mutant(
        "stored-order-kept",
        "strategies.py",
        "        matchings, codes = tuple(map(matchings.__getitem__, first.tolist())), codes[first]\n",
        "",
        (
            "tests/test_strategy_tables.py::TestStoredOrder"
            "::test_any_given_order_is_stored_by_rank",
            "tests/test_cli.py::test_cli_output_pinned[figures --m 6]",
            "tests/test_strategy_io.py::TestFormatPinned"
            "::test_output_is_byte_identical[partial-shuffled-m8]",
        ),
    ),
    Mutant(
        "rank-order-non-strict",
        "strategies.py",
        "if not (ranks[1:] > ranks[:-1]).all():",
        "if not (ranks[1:] >= ranks[:-1]).all():",
        ("tests/test_strategy_tables.py::TestArrayChecks::test_duplicate_matching_refused",),
    ),
    Mutant(
        "equality-ignores-matchings",
        "strategies.py",
        "            and list(map(_RANK, self.bob_matchings)) == list(map(_RANK, other.bob_matchings))\n",
        "",
        (
            "tests/test_strategy_tables.py::TestStoredOrder"
            "::test_equal_codes_on_other_matchings_compare_unequal",
        ),
    ),
    Mutant(
        "graph-vertex-count-kept",
        "coloring.py",
        '_integer(self.vertex_count, "vertex count")',
        "self.vertex_count",
        ("tests/test_coloring.py::TestGraphBasics::test_vertex_count_must_be_an_integer",),
    ),
    Mutant(
        "iterations-kept",
        "search.py",
        '    iterations = _integer(iterations, "iterations")\n',
        "",
        ("tests/test_search.py::TestHillClimb::test_iterations_must_be_an_integer",),
    ),
    Mutant(
        "bob-view-hashes-any-key",
        "strategies.py",
        "        if not isinstance(y, PerfectMatching):\n",
        "        if False:\n",
        (
            "tests/test_strategy_tables.py::TestImmutability"
            "::test_views_answer_only_their_own_keys",
        ),
    ),
    Mutant(
        "partial-start-climbed",
        "search.py",
        "        _require_covering(start)\n",
        "",
        ("tests/test_strategy_tables.py::TestHillClimbStart::test_partial_start_refused",),
    ),
)
