"""Tests for the fault-model dataclasses."""

import pickle
import random

import pytest

from repro.memory.faults import (
    Cell,
    IdempotentCouplingFault,
    InversionCouplingFault,
    StateCouplingFault,
    StuckAtFault,
    TransitionFault,
)
from repro.memory.injection import InterWordCFClass


class TestCell:
    def test_ordering(self):
        assert Cell(0, 1) < Cell(1, 0)
        assert Cell(0, 0) < Cell(0, 1)

    def test_str(self):
        assert str(Cell(3, 5)) == "(3,5)"

    def test_slotted_without_instance_dict(self):
        cell = Cell(3, 5)
        assert not hasattr(cell, "__dict__")
        assert Cell.__slots__ == ("addr", "bit")
        with pytest.raises(AttributeError):
            cell.addr = 4  # still frozen

    def test_value_semantics(self):
        cells = [Cell(2, 0), Cell(0, 7), Cell(2, 1), Cell(0, 0)]
        assert sorted(cells) == [Cell(0, 0), Cell(0, 7), Cell(2, 0), Cell(2, 1)]
        assert Cell(1, 2) == Cell(1, 2) and Cell(1, 2) != Cell(2, 1)
        assert hash(Cell(1, 2)) == hash((1, 2))  # the field tuple's hash
        assert len({Cell(1, 2), Cell(1, 2), Cell(2, 1)}) == 2

    def test_pickle_round_trip(self):
        cell = Cell(6, 3)
        restored = pickle.loads(pickle.dumps(cell))
        assert restored == cell and hash(restored) == hash(cell)
        fault = StuckAtFault(cell, 1)
        assert pickle.loads(pickle.dumps(fault)) == fault

    def test_inter_word_class_pickle_drops_cell_cache(self):
        fc = InterWordCFClass(4, 2, "CFst", max_pairs=6, rng=random.Random(1))
        pairs = fc.cells  # builds and caches the cell pairs
        assert "cells" in vars(fc)
        restored = pickle.loads(pickle.dumps(fc))
        assert "cells" not in vars(restored)
        assert restored.cells == pairs
        assert list(restored) == list(fc)


class TestStuckAt:
    def test_describe(self):
        f = StuckAtFault(Cell(2, 1), 1)
        assert f.describe() == "SAF1@(2,1)"
        assert f.kind == "SAF"
        assert f.cells == (Cell(2, 1),)

    def test_value_validation(self):
        with pytest.raises(ValueError):
            StuckAtFault(Cell(0, 0), 2)

    def test_range_validation(self):
        StuckAtFault(Cell(3, 7), 0).validate(4, 8)
        with pytest.raises(ValueError):
            StuckAtFault(Cell(4, 0), 0).validate(4, 8)
        with pytest.raises(ValueError):
            StuckAtFault(Cell(0, 8), 0).validate(4, 8)


class TestTransition:
    def test_describe(self):
        up = TransitionFault(Cell(0, 0), rising=True)
        dn = TransitionFault(Cell(0, 0), rising=False)
        assert "0->1" in up.describe()
        assert "1->0" in dn.describe()
        assert up.kind == "TF"


class TestCouplingCommon:
    def test_distinct_cells_required(self):
        with pytest.raises(ValueError):
            InversionCouplingFault(Cell(1, 2), Cell(1, 2))

    def test_intra_word_classification(self):
        intra = InversionCouplingFault(Cell(1, 0), Cell(1, 3))
        inter = InversionCouplingFault(Cell(1, 0), Cell(2, 0))
        assert intra.intra_word
        assert not inter.intra_word
        assert "[intra]" in intra.describe()
        assert "[inter]" in inter.describe()

    def test_cells_tuple(self):
        f = StateCouplingFault(Cell(0, 0), Cell(0, 1))
        assert f.cells == (Cell(0, 0), Cell(0, 1))


class TestStateCoupling:
    def test_describe(self):
        f = StateCouplingFault(Cell(0, 0), Cell(0, 1), 1, 0)
        assert f.describe().startswith("CFst<1;0>")
        assert f.kind == "CFst"

    def test_value_validation(self):
        with pytest.raises(ValueError):
            StateCouplingFault(Cell(0, 0), Cell(0, 1), 2, 0)
        with pytest.raises(ValueError):
            StateCouplingFault(Cell(0, 0), Cell(0, 1), 0, -1)


class TestIdempotentCoupling:
    def test_describe(self):
        f = IdempotentCouplingFault(Cell(0, 0), Cell(1, 0), rising=True, forced_value=1)
        assert f.describe().startswith("CFid<up;1>")
        assert f.kind == "CFid"

    def test_forced_value_validation(self):
        with pytest.raises(ValueError):
            IdempotentCouplingFault(Cell(0, 0), Cell(1, 0), True, 7)


class TestInversionCoupling:
    def test_describe(self):
        f = InversionCouplingFault(Cell(0, 0), Cell(1, 0), rising=False)
        assert f.describe().startswith("CFin<down>")
        assert f.kind == "CFin"

    def test_hashable(self):
        a = InversionCouplingFault(Cell(0, 0), Cell(1, 0), rising=True)
        b = InversionCouplingFault(Cell(0, 0), Cell(1, 0), rising=True)
        assert len({a, b}) == 1
