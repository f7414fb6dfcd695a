"""Unit tests for the runtime value model."""

import pytest

from repro.compiler.astnodes import CType, DOUBLE, INT
from repro.runtime.values import (
    CArray,
    HeapBlock,
    MemoryFault,
    Pointer,
    UNINIT,
    coerce_to_type,
    sizeof_type,
    truthy,
)


class TestSizes:
    def test_scalar_sizes(self):
        assert sizeof_type(CType("char")) == 1
        assert sizeof_type(CType("int")) == 4
        assert sizeof_type(CType("long")) == 8
        assert sizeof_type(CType("float")) == 4
        assert sizeof_type(CType("double")) == 8

    def test_pointer_size(self):
        assert sizeof_type(CType("double", pointers=1)) == 8
        assert sizeof_type(CType("char", pointers=2)) == 8


class TestHeapBlock:
    def test_store_load_roundtrip(self):
        block = HeapBlock(size=32)
        block.store(8, 8, 3.5)
        assert block.load(8, 8) == 3.5

    def test_default_load_is_zero(self):
        block = HeapBlock(size=8)
        assert block.load(0, 8) == 0

    def test_out_of_bounds_read_faults(self):
        block = HeapBlock(size=8)
        with pytest.raises(MemoryFault):
            block.load(8, 8)

    def test_out_of_bounds_write_faults(self):
        block = HeapBlock(size=8)
        with pytest.raises(MemoryFault):
            block.store(4, 8, 1.0)

    def test_negative_offset_faults(self):
        block = HeapBlock(size=8)
        with pytest.raises(MemoryFault):
            block.load(-8, 8)

    def test_freed_access_faults(self):
        block = HeapBlock(size=8)
        block.freed = True
        with pytest.raises(MemoryFault):
            block.load(0, 8)


class TestPointer:
    def test_indexing(self):
        block = HeapBlock(size=32)
        ptr = Pointer(block, 0, DOUBLE)
        ptr.index(2).store(5.0)
        assert block.load(16, 8) == 5.0

    def test_pointer_add_respects_element_size(self):
        block = HeapBlock(size=32)
        dptr = Pointer(block, 0, DOUBLE)
        iptr = Pointer(block, 0, INT)
        assert dptr.add(1).byte_offset == 8
        assert iptr.add(1).byte_offset == 4

    def test_retag_changes_element_size(self):
        block = HeapBlock(size=32)
        ptr = Pointer(block, 0, DOUBLE).retag(INT)
        assert ptr.elem_size == 4


class TestCArray:
    def test_flat_length(self):
        arr = CArray(DOUBLE, [3, 4])
        assert arr.flat_length() == 12
        assert arr.block.size == 96

    def test_subarray_pointer_full_index(self):
        arr = CArray(INT, [2, 3])
        ptr = arr.subarray_pointer([1, 2])
        assert ptr.byte_offset == (1 * 3 + 2) * 4

    def test_subarray_pointer_partial_index(self):
        arr = CArray(INT, [2, 3])
        row = arr.subarray_pointer([1])
        assert row.byte_offset == 3 * 4

    def test_index_out_of_bounds_faults(self):
        arr = CArray(INT, [2, 3])
        with pytest.raises(MemoryFault):
            arr.subarray_pointer([2, 0])

    def test_too_many_subscripts_faults(self):
        arr = CArray(INT, [2])
        with pytest.raises(MemoryFault):
            arr.subarray_pointer([0, 0, 0])

    @pytest.mark.parametrize("dims,strides", [
        ([5], (1,)),
        ([2, 3], (3, 1)),
        ([2, 3, 4], (12, 4, 1)),
    ])
    def test_strides_are_row_major(self, dims, strides):
        assert CArray(INT, dims).strides == strides

    def test_partial_index_offsets(self):
        arr = CArray(DOUBLE, [2, 3, 4])
        assert arr.subarray_pointer([]).byte_offset == 0
        assert arr.subarray_pointer([1]).byte_offset == 12 * 8
        assert arr.subarray_pointer([1, 2]).byte_offset == (12 + 2 * 4) * 8
        assert arr.subarray_pointer([1, 2, 3]).byte_offset == (12 + 8 + 3) * 8

    def test_inner_dimension_out_of_bounds_faults_inside_block(self):
        # [0][3] flattens to element 3, inside the 6-element block, but
        # 3 is out of range for the inner dimension
        arr = CArray(INT, [2, 3])
        with pytest.raises(MemoryFault, match="index 3 out of bounds for dimension of size 3"):
            arr.subarray_pointer([0, 3])

    def test_derived_pointers_keep_element_size(self):
        arr = CArray(CType("char"), [4, 4])
        row = arr.subarray_pointer([1])
        assert row.elem_size == 1
        assert row.add(2).elem_size == 1
        assert row.add(2) == Pointer(arr.block, 6, CType("char"))
        assert arr.pointer().index(3).byte_offset == 3


class TestCoercion:
    def test_float_to_int_truncates(self):
        assert coerce_to_type(3.9, INT) == 3

    def test_int_to_float(self):
        assert coerce_to_type(3, DOUBLE) == 3.0
        assert isinstance(coerce_to_type(3, DOUBLE), float)

    def test_int_wraps_32_bits(self):
        assert coerce_to_type(0x80000000, INT) == -0x80000000

    def test_char_wraps_8_bits(self):
        assert coerce_to_type(300, CType("char")) == 300 - 256

    def test_uninit_passes_through(self):
        assert coerce_to_type(UNINIT, INT) is UNINIT


class TestTruthy:
    def test_zero_is_false(self):
        assert not truthy(0)
        assert not truthy(0.0)

    def test_nonzero_is_true(self):
        assert truthy(1)
        assert truthy(-0.5)

    def test_uninit_is_false(self):
        assert not truthy(UNINIT)

    def test_pointer_is_true(self):
        assert truthy(Pointer(HeapBlock(size=8), 0, DOUBLE))

    def test_uninit_is_singleton(self):
        from repro.runtime.values import _Uninitialized

        assert _Uninitialized() is UNINIT
