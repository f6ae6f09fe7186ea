import math

import numpy as np
import pytest

from shapval.datasets import load_labeled_csv
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
