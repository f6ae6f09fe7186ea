import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from shapval import datasets
from shapval.datasets import _load_with_csv, load_labeled_csv
from shapval.errors import ConfigError


def load(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    return load_labeled_csv(path)


def message(tmp_path, text):
    with pytest.raises(ConfigError) as exc:
        load(tmp_path, text)
    return str(exc.value).split(": ", 1)[1]


class TestHeader:
    def test_header_is_skipped(self, tmp_path):
        x, y = load(tmp_path, "a,b,label\n1,2,p\n3,4,q\n")
        assert x.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert y.tolist() == ["p", "q"]

    def test_numeric_first_row_is_data(self, tmp_path):
        x, y = load(tmp_path, "1,2,label\n3,4,q\n")
        assert x.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert y.tolist() == ["label", "q"]

    def test_header_with_one_numeric_cell_is_still_a_header(self, tmp_path):
        x, _ = load(tmp_path, "1,b,label\n3,4,q\n")
        assert x.tolist() == [[3.0, 4.0]]

    def test_header_only_has_no_data_rows(self, tmp_path):
        with pytest.raises(ConfigError, match="no data rows"):
            load(tmp_path, "a,b,label\n")

    @pytest.mark.parametrize("text", ["", "\n\n", " , \n"])
    def test_empty_file(self, tmp_path, text):
        with pytest.raises(ConfigError, match="is empty"):
            load(tmp_path, text)

    def test_label_column_alone_is_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="at least one feature and a label"):
            load(tmp_path, "p\nq\n")


class TestBlankRows:
    def test_empty_and_whitespace_rows_are_skipped(self, tmp_path):
        x, y = load(tmp_path, "\n1,p\n   \n , \t,\n2,q\n\n")
        assert x.tolist() == [[1.0], [2.0]]
        assert y.tolist() == ["p", "q"]

    def test_row_numbers_count_only_kept_rows(self, tmp_path):
        # the blank line does not count, the header does
        assert message(tmp_path, "a,label\n\n1,p\n2\n") == "row 3 has 1 cells, expected 2"


class TestRowErrors:
    def test_ragged_row(self, tmp_path):
        assert message(tmp_path, "1,2,p\n3,4,q\n5,q\n") == "row 3 has 2 cells, expected 3"

    def test_ragged_row_after_header(self, tmp_path):
        assert message(tmp_path, "a,b,label\n1,2,p\n3,4,5,q\n") == "row 3 has 4 cells, expected 3"

    def test_non_numeric_feature(self, tmp_path):
        assert message(tmp_path, "a,label\n1,p\n2,q\nx,r\n") == "non-numeric feature in row 4"

    def test_empty_feature_cell_is_non_numeric(self, tmp_path):
        assert message(tmp_path, "1,2,p\n3, ,q\n") == "non-numeric feature in row 2"

    def test_first_failing_row_is_reported(self, tmp_path):
        assert message(tmp_path, "1,p\nx,q\n2,3,r\n") == "non-numeric feature in row 2"
        assert message(tmp_path, "1,p\n2,3,q\nx,r\n") == "row 2 has 3 cells, expected 2"

    def test_message_names_the_file(self, tmp_path):
        with pytest.raises(ConfigError, match="data.csv: row 2"):
            load(tmp_path, "1,p\n2\n")


class TestCells:
    def test_spaces_around_numbers_and_labels(self, tmp_path):
        x, y = load(tmp_path, " 1.5 ,\t-2 , pos \n3,4e-1,  neg\n")
        assert x.tolist() == [[1.5, -2.0], [3.0, 0.4]]
        assert y.tolist() == ["pos", "neg"]

    def test_quoted_cells(self, tmp_path):
        x, y = load(tmp_path, '"1.5"," 2 ","a, b"\n"3",4,"c"\n')
        assert x.tolist() == [[1.5, 2.0], [3.0, 4.0]]
        assert y.tolist() == ["a, b", "c"]

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "nan", "1_0", "1e999", "+.5", "0x1"])
    def test_features_parse_as_float_parses_them(self, tmp_path, cell):
        try:
            expected = float(cell)
        except ValueError:
            assert message(tmp_path, f"1,p\n{cell},q\n") == "non-numeric feature in row 2"
            return
        x, _ = load(tmp_path, f"1,p\n{cell},q\n")
        got = x[1, 0]
        assert got == expected or (math.isnan(got) and math.isnan(expected))

    def test_labels_are_stripped_strings_in_an_object_array(self, tmp_path):
        x, y = load(tmp_path, "1, 1 \n2,-1\n3,1.0\n")
        assert x.dtype == np.float64 and x.shape == (3, 1)
        assert y.dtype == object and y.shape == (3,)
        assert y.tolist() == ["1", "-1", "1.0"]


class TestEncoding:
    @pytest.mark.parametrize("text", ["a,label\n1.0,p\n2,q\n", "1.0,p\n2,q\n"])
    def test_byte_order_mark_is_dropped(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        x, y = load_labeled_csv(path)
        assert x.tolist() == [[1.0], [2.0]]
        assert y.tolist() == ["p", "q"]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_is_read_like_a_file(self):
        read_end, write_end = os.pipe()
        os.write(write_end, b"a,label\n1.0,p\n2,q\n")
        os.close(write_end)
        try:
            x, y = load_labeled_csv(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert x.tolist() == [[1.0], [2.0]]
        assert y.tolist() == ["p", "q"]

    def test_undecodable_file_is_a_config_error_naming_it(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"1,p\n\xff,q\n")
        with pytest.raises(ConfigError, match=r"data\.csv is not UTF-8 text: .*0xff"):
            load_labeled_csv(path)


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda v: "%g" % v),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.6E" % v),
    st.integers(-(10**6), 10**6).map(str),
)
ODD_CELLS = st.sampled_from(["inf", "-Infinity", "nan", "1e999", "1_0", "x", "", " ", "\uff11", "\x1c1"])
PADS = st.sampled_from(["", " ", "\t", "  "])
LABELS = st.sampled_from(["p", "q", "-1", "1.0", " two words ", "#tag", "a#b", '"a, b"', '" c "'])
BLANK_ROWS = st.sampled_from(["", "   ", "\t", " , ", ","])
LINE_ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw):
    """Dataset text: mostly well-formed rows, sometimes blank, ragged or odd ones."""
    width = draw(st.integers(1, 3))

    def feature():
        kind = draw(st.sampled_from(["number"] * 6 + ["padded", "odd"]))
        if kind == "odd":
            return draw(ODD_CELLS)
        cell = draw(NUMBERS)
        return draw(PADS) + cell + draw(PADS) if kind == "padded" else cell

    rows = []
    if draw(st.booleans()):
        rows.append(",".join(draw(st.sampled_from(["a", "1", "label"])) for _ in range(width + 1)))
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["data"] * 6 + ["blank", "ragged"]))
        if kind == "blank":
            rows.append(draw(BLANK_ROWS))
            continue
        cells = [feature() for _ in range(width)] + [draw(LABELS)]
        if kind == "ragged":
            cells = cells[1:] if draw(st.booleans()) else [*cells, draw(LABELS)]
        rows.append(",".join(cells))
    if draw(st.integers(0, 9)) == 0:  # a mix of line ends
        ends = [draw(LINE_ENDS) for _ in rows]
        return "".join(row + end for row, end in zip(rows, ends))
    end = draw(LINE_ENDS)
    return end.join(rows) + (end if draw(st.booleans()) else "")


def outcome(load, *args):
    """What a loader returns, down to the bytes, or its ConfigError text."""
    try:
        x, y = load(*args)
    except ConfigError as exc:
        return str(exc)
    return x.dtype, x.shape, x.tobytes(), y.dtype, y.shape, [(type(v), v) for v in y]


class TestCsvModuleEquivalence:
    """Whatever parses a file, the result is the ``csv``-module path's."""

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts(), bom=st.booleans())
    @example(text="a,b,label\n", bom=False)
    @example(text="a,label\n\n   \n", bom=False)
    @example(text="1,p\r2,q\r", bom=False)
    @example(text="1,p\r2,q\n3,r\n", bom=False)
    @example(text="1,p\r\n\r\n2,q", bom=True)
    @example(text=" , \n1,p\n\x1c2,q\n", bom=False)
    def test_loader_matches_the_csv_module_path(self, tmp_path, text, bom):
        path = tmp_path / "data.csv"
        path.write_bytes(("\ufeff" if bom else "").encode() + text.encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = outcome(load_labeled_csv, path)
        assert not caught
        assert got == outcome(_load_with_csv, path, text)


class TestReaderChoice:
    """Plain files take numpy's reader; the rest, and what it refuses, the csv module."""

    @pytest.fixture
    def csv_calls(self, monkeypatch):
        calls = []

        def spy(path, text):
            calls.append(text)
            return _load_with_csv(path, text)

        monkeypatch.setattr(datasets, "_load_with_csv", spy)
        return calls

    @pytest.mark.parametrize(
        "text",
        ["1,p\n2,q\n", "a,b\r\n1, 2 ,p\r\n\r\n3,4,q", " 1 ,#p\n\n-inf,\tq \n", "1e999,p\n", " , \n1,p\n"],
    )
    def test_plain_file(self, tmp_path, csv_calls, text):
        assert outcome(load, tmp_path, text) == outcome(_load_with_csv, tmp_path / "data.csv", text)
        assert csv_calls == []

    @pytest.mark.parametrize(
        "text",
        [
            '1,"p"\n',  # a quote
            "1,p\r2,q\n3,r\n",  # a lone CR, which numpy would skip over with the header
            "1,p\n2\x1c,q\n",  # a separator numpy strips and float() does not
            "\n1,p\n",  # an empty first row
            "a,b\n\n1,p\n",  # an empty row after the header
            "1,p\n  \n2,q\n",  # a whitespace-only row
            "1_0,p\n",  # a cell only float() parses
            "1,p\n2,3,q\n",  # a ragged row
            "a,b\n",  # no data rows
            "p\n",  # no feature column
        ],
    )
    def test_other_file(self, tmp_path, csv_calls, text):
        outcome(load, tmp_path, text)
        assert len(csv_calls) == 1

    def test_cell_over_the_csv_field_limit(self, tmp_path, csv_calls):
        # numpy has no field limit; the csv module's refusal is a ConfigError
        long_label = "p" * 200_000
        x, y = load(tmp_path, f"1,{long_label}\n")
        assert x.tolist() == [[1.0]] and y.tolist() == [long_label]
        assert csv_calls == []
        with pytest.raises(ConfigError, match=r"data\.csv: line 2: field larger than field limit"):
            load(tmp_path, f'1,p\n2,"{long_label}"\n')
