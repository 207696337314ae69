import datetime
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from tabrc.values import (
    Date,
    Duration,
    IncomparablePrecision,
    NotADate,
    NotANumber,
    SemanticType,
    annotate_column,
    compare_dates,
    date_difference,
    parse_date,
    parse_number,
    render_date,
    render_duration,
    render_number,
)


class TestParseNumber:
    def test_thousands_separator(self):
        assert parse_number("34,178") == Decimal("34178")

    def test_zero(self):
        assert parse_number("0") == Decimal("0")

    def test_non_numeric_raises(self):
        with pytest.raises(NotANumber):
            parse_number("QFR")

    @pytest.mark.parametrize("raw,expected", [
        ("$5,000.00", Decimal("5000.00")),
        ("€12", Decimal("12")),
        ("48.2%", Decimal("48.2")),
        ("-17", Decimal("-17")),
        ("  42 ", Decimal("42")),
    ])
    def test_symbol_stripping(self, raw, expected):
        assert parse_number(raw) == expected

    @pytest.mark.parametrize("raw", ["", "  ", "1-0", "2-2", "nan", "inf", "Infinity", "4-1 (won 9-1 on agg)"])
    def test_rejects(self, raw):
        with pytest.raises(NotANumber):
            parse_number(raw)


class TestParseDate:
    def test_day_month_year(self):
        assert parse_date("27 February 1991") == Date(1991, 2, 27)

    def test_year_only(self):
        assert parse_date("1991") == Date(1991)

    def test_non_date_raises(self):
        with pytest.raises(NotADate):
            parse_date("Paul McCartney")

    @pytest.mark.parametrize("raw,expected", [
        ("February 27, 1991", Date(1991, 2, 27)),
        ("Feb 27 1991", Date(1991, 2, 27)),
        ("February 1991", Date(1991, 2)),
        ("1991-02-27", Date(1991, 2, 27)),
        ("6 November 1990", Date(1990, 11, 6)),
    ])
    def test_formats(self, raw, expected):
        assert parse_date(raw) == expected

    @pytest.mark.parametrize("raw", ["31 February 1991", "0 March 1991", "123", "15", "Foober 1991"])
    def test_invalid(self, raw):
        with pytest.raises(NotADate):
            parse_date(raw)

    def test_plain_number_is_not_a_date(self):
        with pytest.raises(NotADate):
            parse_date("34178")


class TestDateValidation:
    @pytest.mark.parametrize("args", [(1991, None, 5), (1991, 0), (1991, 13), (1991, 2, 30)],
                             ids=["day-without-month", "month-0", "month-13", "30-february"])
    def test_invalid_fields_raise(self, args):
        with pytest.raises(ValueError):
            Date(*args)

    def test_leap_day_accepted(self):
        date = Date(2000, 2, 29)
        assert (date.year, date.month, date.day) == (2000, 2, 29)
        assert Date(year=2000, month=2, day=29) == date


class TestRendering:
    def test_number_no_separators(self):
        assert render_number(Decimal("15703")) == "15703"

    def test_number_strips_trailing_zeros(self):
        assert render_number(Decimal("48.20")) == "48.2"

    def test_date_full(self):
        assert render_date(Date(1991, 2, 27)) == "27 February 1991"

    def test_date_partial(self):
        assert render_date(Date(1991, 2)) == "February 1991"
        assert render_date(Date(1991)) == "1991"

    def test_duration_full(self):
        assert render_duration(Duration(47, 11, 16)) == "47 years, 11 months, 16 days"

    def test_duration_singulars_and_zeros(self):
        assert render_duration(Duration(1, 0, 0)) == "1 year"
        assert render_duration(Duration(0, 1, 1)) == "1 month, 1 day"

    @given(st.decimals(allow_nan=False, allow_infinity=False, places=4,
                       min_value=Decimal("-1e12"), max_value=Decimal("1e12")))
    def test_parse_render_round_trip(self, value):
        assert parse_number(render_number(value)) == value

    @given(st.dates(min_value=datetime.date(1000, 1, 1), max_value=datetime.date(2999, 12, 31)))
    def test_date_round_trip(self, d):
        date = Date(d.year, d.month, d.day)
        assert parse_date(render_date(date)) == date


class TestDateDifference:
    def test_concert_gap(self):
        got = date_difference(Date(1966, 8, 29), Date(2014, 8, 14))
        assert got == Duration(47, 11, 16)

    def test_year_only(self):
        assert date_difference(Date(1990), Date(1991)) == Duration(1)

    def test_symmetric(self):
        a, b = Date(1990, 11, 28), Date(1991, 2, 27)
        assert date_difference(a, b) == date_difference(b, a)

    def test_mixed_precision_raises(self):
        with pytest.raises(IncomparablePrecision):
            date_difference(Date(1990), Date(1991, 2, 27))

    def test_month_precision(self):
        assert date_difference(Date(1990, 2), Date(1991, 7)) == Duration(1, 5)

    def test_month_end_clamp(self):
        # one clamped month plus a day, not zero months and 29 days
        assert date_difference(Date(2021, 1, 31), Date(2021, 3, 1)) == Duration(0, 1, 1)
        assert date_difference(Date(2021, 1, 31), Date(2021, 2, 28)) == Duration(0, 1, 0)


class TestCompareDates:
    def test_orders_full_dates(self):
        assert compare_dates(Date(1990, 11, 28), Date(1991, 2, 27)) == -1

    def test_shared_precision_tie(self):
        assert compare_dates(Date(1990), Date(1990, 11, 28)) == 0

    def test_year_decides_across_precision(self):
        assert compare_dates(Date(1991), Date(1990, 11, 28)) == 1


class TestAnnotateColumn:
    def test_numbers(self):
        assert annotate_column(["34,178", "33,861", "9,789", "16,699"])[0] is SemanticType.NUMBER

    def test_strings(self):
        assert annotate_column(["QF", "QFR", "R4", "R3"])[0] is SemanticType.STRING

    def test_blank_cells_excluded_from_ratio(self):
        cells = ["3 May 1990", "12 June 1991", "1 July 1992", "9 May 1993", "2 May 1994",
                 "8 May 1995", "4 May 1996", "11 May 1997", "3 May 1998", ""]
        assert annotate_column(cells)[0] is SemanticType.DATE

    def test_year_only_column_is_number(self):
        assert annotate_column(["1992", "1996", "2000", "2004"])[0] is SemanticType.NUMBER

    def test_years_with_a_month_become_dates(self):
        assert annotate_column(["1992", "1996", "May 2000", "2004"])[0] is SemanticType.DATE

    def test_all_empty_is_string(self):
        assert annotate_column(["", " ", ""])[0] is SemanticType.STRING

    def test_threshold(self):
        # 8 of 10 numeric is below the 0.85 cutoff, 9 of 10 is above
        assert annotate_column(["1"] * 8 + ["x", "y"])[0] is SemanticType.STRING
        assert annotate_column(["1"] * 9 + ["x"])[0] is SemanticType.NUMBER

    @given(st.lists(st.sampled_from(["34,178", "QF", "27 February 1991", "", "12"]),
                    min_size=1, max_size=30), st.randoms())
    def test_permutation_invariant(self, cells, rng):
        before = annotate_column(cells)[0]
        shuffled = list(cells)
        rng.shuffle(shuffled)
        assert annotate_column(shuffled)[0] is before

    @given(st.lists(st.sampled_from([" 12 ", "34,178", "7.5", "27 February 1991", "May 2000",
                                     "1992", "2004 ", "QF", "[a]", "", "  "]),
                    max_size=30))
    def test_parses_follow_the_column_type(self, cells):
        kind, texts, parses = annotate_column(cells)
        assert texts == [cell.strip() for cell in cells]
        assert len(parses) == len(cells)
        for cell, parse in zip(cells, parses):
            text = cell.strip()
            if kind is SemanticType.STRING:
                expected = text or None
            else:
                parser, error = ((parse_number, NotANumber) if kind is SemanticType.NUMBER
                                 else (parse_date, NotADate))
                try:
                    expected = parser(text) if text else None
                except error:
                    expected = None
            assert parse == expected and type(parse) is type(expected)
