"""Shared Prometheus exposition builders: escaping, headers, the linter."""

import pytest

from repro.obs import (
    Family,
    escape_help_text,
    escape_label_value,
    exposition,
    lint_exposition,
    prom_header,
    prom_sample,
)


class TestEscaping:
    def test_quote_is_escaped(self):
        assert escape_label_value('say "hi"') == 'say \\"hi\\"'

    def test_backslash_is_escaped_first(self):
        # A raw backslash must not merge with the quote escape.
        assert escape_label_value('C:\\path"x') == 'C:\\\\path\\"x'

    def test_newline_is_escaped(self):
        assert escape_label_value("a\nb") == "a\\nb"

    def test_plain_values_pass_through(self):
        assert escape_label_value("bank_conflict") == "bank_conflict"
        assert escape_label_value(42) == "42"

    def test_help_text_escapes_backslash_and_newline(self):
        assert escape_help_text("a\\b\nc") == "a\\\\b\\nc"


class TestBuilders:
    def test_sample_without_labels(self):
        assert prom_sample("x_total", 3) == "x_total 3"

    def test_sample_labels_sorted_and_escaped(self):
        line = prom_sample("x", 1.5, {"b": 'v"1', "a": "v2"})
        assert line == 'x{a="v2",b="v\\"1"} 1.5'

    def test_header_is_help_then_type(self):
        lines = prom_header("x_total", "counter", "Things counted.")
        assert lines == [
            "# HELP x_total Things counted.",
            "# TYPE x_total counter",
        ]


class TestLinter:
    def _page(self, *lines):
        return "\n".join(lines) + "\n"

    def test_clean_page_has_no_problems(self):
        page = self._page(
            "# HELP x_total Things.",
            "# TYPE x_total counter",
            'x_total{cause="a b"} 3',
            "# HELP lat_s Latency.",
            "# TYPE lat_s summary",
            'lat_s{quantile="0.95"} 0.25',
            "lat_s_count 4",
            "lat_s_sum 0.9",
        )
        assert lint_exposition(page) == []

    def test_escaped_quote_in_label_parses(self):
        page = self._page(
            "# HELP x X.",
            "# TYPE x gauge",
            'x{name="say \\"hi\\""} 1',
        )
        assert lint_exposition(page) == []

    def test_unescaped_quote_is_flagged(self):
        page = self._page(
            "# HELP x X.",
            "# TYPE x gauge",
            'x{name="say "hi""} 1',
        )
        assert any("label block" in p for p in lint_exposition(page))

    def test_sample_without_type_is_flagged(self):
        assert any(
            "no # TYPE" in p for p in lint_exposition(self._page("orphan 1"))
        )

    def test_sample_without_help_is_flagged(self):
        page = self._page("# TYPE x gauge", "x 1")
        assert any("no # HELP" in p for p in lint_exposition(page))

    def test_integer_quantile_is_flagged(self):
        page = self._page(
            "# HELP lat_s L.",
            "# TYPE lat_s summary",
            'lat_s{quantile="95"} 0.25',
        )
        assert any("not fractional" in p for p in lint_exposition(page))

    def test_non_numeric_value_is_flagged(self):
        page = self._page("# HELP x X.", "# TYPE x gauge", "x oops")
        assert any("non-numeric" in p for p in lint_exposition(page))

    def test_missing_trailing_newline_is_flagged(self):
        assert any(
            "newline" in p
            for p in lint_exposition("# HELP x X.\n# TYPE x gauge\nx 1")
        )

    def test_bad_type_keyword_is_flagged(self):
        assert any(
            "malformed TYPE" in p
            for p in lint_exposition(self._page("# TYPE x countr", "x 1"))
        )


@pytest.mark.parametrize(
    "renderer",
    ["fabric", "sim"],
    ids=["fabric_report", "trace_export"],
)
def test_repo_renderers_survive_hostile_label_values(renderer):
    """Both real renderers must emit lintable pages for hostile labels."""
    hostile = 'cfo="50e3" \\ units'
    if renderer == "sim":
        from repro.trace.export import prometheus_text

        class _Stats:
            def as_dict(self):
                return {
                    "counters": {"cycles": 10},
                    "fu_ops": {},
                    "op_groups": {},
                    "stall_causes": {"bank_conflict": 3},
                }

        page = prometheus_text(_Stats(), labels={"run": hostile})
    else:
        from repro.fabric.report import fabric_prometheus_text

        page = fabric_prometheus_text(
            {"cache": {hostile: {"hits": 1}}, "ingest": {"malformed": {hostile: 2}}}
        )
    assert lint_exposition(page) == []
    assert '\\"' in page


class TestExposition:
    def test_none_samples_and_empty_families_are_left_out(self):
        families = (
            Family("a", "gauge", "A.", lambda src: [("", None, src.get("a"))]),
            Family("b", "counter", "B.", lambda src: [("", {"k": "x"}, src["b"])]),
        )
        assert exposition(families, {"b": 2}) == (
            '# HELP b B.\n# TYPE b counter\nb{k="x"} 2\n'
        )

    def test_constant_labels_join_every_sample(self):
        families = (
            Family("s", "summary", "S.", lambda src: [
                ("", {"quantile": "0.5", "run": "own"}, 1), ("_count", None, 3),
            ]),
        )
        page = exposition(families, {}, labels={"run": "r1", "tier": "t"})
        assert 's{quantile="0.5",run="own",tier="t"} 1' in page
        assert 's_count{run="r1",tier="t"} 3' in page
        assert lint_exposition(page) == []

    def test_nothing_to_render_is_an_empty_page(self):
        assert exposition((), {}) == "\n"
