import numpy as np
import pytest

from ganfolio.errors import ValidationError
from ganfolio.marketdata import (PriceFrame, extract_window, inference_index_set,
                                 load_price_csv, simple_returns, split_train_test,
                                 training_index_set, write_price_csv)

from conftest import make_frame
from oracles import cell_by_cell_price_csv


def write_csv(path, text):
    path.write_text(text)
    return path


class TestLoadPriceCsv:
    def test_basic_parse(self, tmp_path):
        path = write_csv(tmp_path / "p.csv",
                         "date,A,B\n2020-01-01,1,2\n2020-01-02,2,3\n2020-01-03,3,4\n")
        frame = load_price_csv(path)
        assert frame.tickers == ("A", "B")
        assert frame.n_assets == 2 and frame.day_count == 3
        assert np.array_equal(frame.prices, [[1, 2, 3], [2, 3, 4]])

    def test_empty_cell_names_row_and_ticker(self, tmp_path):
        path = write_csv(tmp_path / "p.csv",
                         "date,A,B\n2020-01-01,1,2\n2020-01-02,,3\n")
        with pytest.raises(ValidationError, match=r"row 3.*ticker A"):
            load_price_csv(path)

    def test_nan_cell_rejected(self, tmp_path):
        path = write_csv(tmp_path / "p.csv",
                         "date,A,B\n2020-01-01,1,2\n2020-01-02,nan,3\n")
        with pytest.raises(ValidationError, match=r"NaN.*row 3"):
            load_price_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity"])
    def test_infinite_cell_named_infinite(self, tmp_path, cell):
        path = write_csv(tmp_path / "p.csv",
                         f"date,A,B\n2020-01-01,1,2\n2020-01-02,2,{cell}\n")
        with pytest.raises(ValidationError, match=r"infinite value at row 3, ticker B"):
            load_price_csv(path)

    def test_ticker_with_a_line_break_is_named_by_its_repr(self, tmp_path):
        # one error line, whatever cell faults below; no line break reaches an output
        path = write_csv(tmp_path / "p.csv", 'date,A,"B\nC"\n2020-01-01,1,\n')
        with pytest.raises(ValidationError) as raised:
            load_price_csv(path)
        assert str(raised.value) == f"{path}: ticker 'B\\nC' holds a line break"

    @pytest.mark.parametrize("rows, message", [
        (["1,2", "nan,2", "3,4", "x,5"], "NaN value at row 3, ticker A"),
        (["1,2", "2,-1", "3"], "non-positive price -1.0 at row 3, ticker B"),
    ], ids=["nan_before_text", "non_positive_before_short_row"])
    def test_first_fault_in_row_order_is_named(self, tmp_path, rows, message):
        text = "date,A,B\n" + "".join(f"2020-01-{day:02d},{row}\n"
                                       for day, row in enumerate(rows, start=1))
        path = write_csv(tmp_path / "p.csv", text)
        with pytest.raises(ValidationError) as raised:
            load_price_csv(path)
        assert str(raised.value) == f"{path}: {message}"

    def test_cells_parse_to_the_cell_by_cell_values(self, tmp_path):
        # float() strips the same whitespace as str.strip(), except
        # U+001C..U+001F, which only str.strip() removes
        path = write_csv(tmp_path / "p.csv",
                         "date,A,B,C,D,E\n"
                         "2020-01-01, 1.5 ,1_000,+2,1e3,\u20037\t\n"
                         "2020-01-02,2,3,4,5,6\x1c\n")
        frame = load_price_csv(path)
        assert frame.prices[:, 0].tolist() == [1.5, 1000.0, 2.0, 1000.0, 7.0]
        assert frame.prices[:, 1].tolist() == [2.0, 3.0, 4.0, 5.0, 6.0]
        reference = cell_by_cell_price_csv(path)
        assert frame.dates == reference.dates
        assert frame.prices.tobytes() == reference.prices.tobytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_price_csv(tmp_path / "absent.csv")

    def test_non_monotone_dates(self, tmp_path):
        path = write_csv(tmp_path / "p.csv",
                         "date,A,B\n2020-01-02,1,2\n2020-01-01,2,3\n")
        with pytest.raises(ValidationError, match="strictly increasing"):
            load_price_csv(path)

    def test_ticker_reorder_and_unknown(self, tmp_path):
        path = write_csv(tmp_path / "p.csv",
                         "date,A,B,C\n2020-01-01,1,2,3\n2020-01-02,2,3,4\n")
        frame = load_price_csv(path, expected_tickers=["C", "A"])
        assert frame.tickers == ("C", "A")
        assert np.array_equal(frame.prices[0], [3, 4])
        with pytest.raises(ValidationError, match=r"\['Z'\] not in file"):
            load_price_csv(path, expected_tickers=["Z"])

    def test_us_dataset_dimensions(self, tmp_path):
        # 10 tickers over 800 test days
        tickers = [f"S{i}" for i in range(10)]
        header = "date," + ",".join(tickers)
        rows = [f"d{day:05d}," + ",".join(str(1.0 + 0.001 * day + 0.1 * i) for i in range(10))
                for day in range(800)]
        path = write_csv(tmp_path / "us.csv", header + "\n" + "\n".join(rows) + "\n")
        frame = load_price_csv(path)
        assert frame.n_assets == 10 and frame.day_count == 800

    def test_roundtrip_through_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        frame = make_frame(1.0 + rng.random((3, 7)) * 99.0)
        write_price_csv(frame, tmp_path / "out.csv")
        back = load_price_csv(tmp_path / "out.csv")
        assert back.tickers == frame.tickers and back.dates == frame.dates
        # identity up to the documented 10-significant-digit formatting
        assert np.allclose(back.prices, frame.prices, rtol=1e-9, atol=0)


class TestPriceFrame:
    def test_rejects_single_asset(self):
        with pytest.raises(ValidationError, match="at least 2 assets"):
            PriceFrame(("A",), ("d1", "d2"), np.ones((1, 2)))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError, match="positive"):
            make_frame([[1.0, -1.0], [1.0, 1.0]])

    def test_prices_immutable(self):
        frame = make_frame(np.ones((2, 3)))
        with pytest.raises(ValueError):
            frame.prices[0, 0] = 2.0


class TestSplit:
    def test_basic_split(self):
        frame = make_frame(np.arange(1, 21, dtype=float).reshape(2, 10))
        train, test = split_train_test(frame, frame.dates[6])
        assert train.day_count == 7 and test.day_count == 3
        assert np.array_equal(np.hstack([train.prices, test.prices]), frame.prices)

    def test_split_at_last_date_rejected(self):
        frame = make_frame(np.ones((2, 5)))
        with pytest.raises(ValidationError, match="empty test set"):
            split_train_test(frame, frame.dates[-1])

    def test_split_outside_range(self):
        frame = make_frame(np.ones((2, 5)))
        with pytest.raises(ValidationError, match="outside"):
            split_train_test(frame, "1900-01-01")


class TestIndexSets:
    def test_training_set_size(self):
        s1 = training_index_set(100, 60)
        assert s1[0] == 1 and s1[-1] == 41 and s1.size == 41

    def test_training_boundary(self):
        assert training_index_set(60, 60).tolist() == [1]
        with pytest.raises(ValidationError):
            training_index_set(59, 60)

    def test_training_size_property(self):
        for day_count, w in [(61, 60), (100, 10), (7, 3), (500, 250)]:
            assert training_index_set(day_count, w).size == day_count - w + 1

    def test_inference_set_paper_dimensions(self):
        s2 = inference_index_set(800, 40, 20)
        assert s2.size == 38
        assert s2[0] == 41 and s2[1] == 61 and s2[-1] == 781

    def test_inference_single_block(self):
        assert inference_index_set(60, 40, 20).tolist() == [41]

    def test_inference_divisibility(self):
        with pytest.raises(ValidationError, match="truncate"):
            inference_index_set(70, 40, 20)

    def test_inference_spacing_property(self):
        for day_count, h, f in [(800, 40, 20), (64, 8, 4), (30, 10, 5)]:
            s2 = inference_index_set(day_count, h, f)
            assert s2.size == (day_count - h) // f
            assert np.all(np.diff(s2) == f)


class TestExtractWindow:
    def test_views_of_source(self):
        frame = make_frame(np.arange(2.0, 122.0).reshape(2, 60))
        window = extract_window(frame, 1, 40, 20)
        assert window.full.shape == (2, 60)
        assert np.array_equal(window.historical, frame.prices[:, :40])
        assert window.historical.base is window.full.base

    def test_shifted_start(self):
        frame = make_frame(np.arange(2.0, 122.0).reshape(2, 60))
        window = extract_window(frame, 2, 30, 20)
        assert np.array_equal(window.full, frame.prices[:, 1:51])

    def test_out_of_range(self):
        frame = make_frame(np.arange(2.0, 122.0).reshape(2, 60))
        with pytest.raises(ValidationError, match="exceeds"):
            extract_window(frame, 2, 40, 20)

    def test_concat_reproduces_slice(self):
        rng = np.random.default_rng(1)
        frame = make_frame(1.0 + rng.random((3, 30)))
        for start in (1, 5, 11):
            window = extract_window(frame, start, 12, 8)
            assert np.array_equal(window.full, frame.prices[:, start - 1:start + 19])
            assert np.array_equal(window.historical, window.full[:, :12])


class TestSimpleReturns:
    def test_definition(self):
        assert np.allclose(simple_returns(np.array([100.0, 110.0])), [0.10])

    def test_constant(self):
        assert np.array_equal(simple_returns(np.array([5.0, 5.0, 5.0])), [0.0, 0.0])

    def test_down_up(self):
        assert np.allclose(simple_returns(np.array([100.0, 50.0, 100.0])), [-0.5, 1.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            simple_returns(np.array([1.0, 0.0]))

    def test_matrix_shape(self):
        out = simple_returns(np.ones((4, 9)))
        assert out.shape == (4, 8)
