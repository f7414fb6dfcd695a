"""Runtime value model for the interpreter.

Scalars are plain Python ``int``/``float``.  Aggregates:

* :class:`HeapBlock` — a ``malloc``'d region, byte-sized with typed
  cell access;
* :class:`CArray` — a declared array (possibly multi-dimensional);
* :class:`Pointer` — (block, element offset) with the pointee type;
* :data:`UNINIT` — the value of an uninitialized pointer; dereferencing
  it is the simulated segfault.

Sizes follow the LP64 model (int 4, long 8, pointer 8, float 4,
double 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.compiler.astnodes import CType

TYPE_SIZES = {
    "char": 1,
    "unsigned char": 1,
    "short": 2,
    "unsigned short": 2,
    "int": 4,
    "unsigned int": 4,
    "long": 8,
    "unsigned long": 8,
    "long long": 8,
    "unsigned long long": 8,
    "float": 4,
    "double": 8,
    "long double": 16,
    "void": 1,
}

POINTER_SIZE = 8


def sizeof_type(ctype: CType) -> int:
    if ctype.is_pointer:
        return POINTER_SIZE
    return TYPE_SIZES.get(ctype.base, 8)


class _Uninitialized:
    """Singleton marker for indeterminate values."""

    _instance: "_Uninitialized | None" = None

    def __new__(cls) -> "_Uninitialized":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<uninitialized>"

    def __bool__(self) -> bool:
        return False


UNINIT = _Uninitialized()


@dataclass
class HeapBlock:
    """One allocation: ``size`` bytes, a sparse typed cell store.

    Cells are keyed by byte offset; each access supplies the element
    size, so a block written through ``double*`` and read back through
    ``double*`` round-trips exactly.  ``freed`` supports use-after-free
    detection.
    """

    size: int
    label: str = "heap"
    cells: dict[int, Union[int, float, "Pointer", _Uninitialized]] = field(default_factory=dict)
    freed: bool = False
    device: bool = False

    def load(self, byte_offset: int, elem_size: int):
        if self.freed:
            raise MemoryFault(f"read from freed {self.label} block")
        if byte_offset < 0 or byte_offset + elem_size > self.size:
            raise MemoryFault(
                f"out-of-bounds read at byte {byte_offset} of {self.size}-byte {self.label} block"
            )
        return self.cells.get(byte_offset, 0)

    def store(self, byte_offset: int, elem_size: int, value) -> None:
        if self.freed:
            raise MemoryFault(f"write to freed {self.label} block")
        if byte_offset < 0 or byte_offset + elem_size > self.size:
            raise MemoryFault(
                f"out-of-bounds write at byte {byte_offset} of {self.size}-byte {self.label} block"
            )
        self.cells[byte_offset] = value

    def clone_cells(self) -> dict:
        return dict(self.cells)


class MemoryFault(Exception):
    """An invalid memory access (maps to a simulated SIGSEGV)."""


@dataclass
class Pointer:
    """A typed pointer into a heap block."""

    block: HeapBlock
    byte_offset: int
    pointee: CType
    #: element size, cached at construction — every load/store needs it
    elem_size: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self) -> None:
        self.elem_size = sizeof_type(self.pointee)

    def add(self, elements: int) -> "Pointer":
        return _pointer_at(
            self.block, self.byte_offset + elements * self.elem_size, self.pointee, self.elem_size
        )

    def load(self):
        return self.block.load(self.byte_offset, self.elem_size)

    def store(self, value) -> None:
        self.block.store(self.byte_offset, self.elem_size, value)

    def index(self, i: int) -> "Pointer":
        return self.add(i)

    def retag(self, pointee: CType) -> "Pointer":
        return Pointer(self.block, self.byte_offset, pointee)


@dataclass
class CArray:
    """A declared (stack or global) array, possibly multi-dimensional.

    Represented as a heap block plus shape metadata; element access
    computes the flattened byte offset from the row-major ``strides``.
    """

    elem_type: CType
    dims: list[int]
    block: HeapBlock = None  # type: ignore[assignment]
    #: element size, cached at construction (see :class:`Pointer`)
    elem_size: int = field(init=False, compare=False, repr=False, default=0)
    #: element stride of each dimension (row-major), cached at construction
    strides: tuple[int, ...] = field(init=False, compare=False, repr=False, default=())

    def __post_init__(self) -> None:
        self.elem_size = sizeof_type(self.elem_type)
        strides = []
        stride = 1
        for d in reversed(self.dims):
            strides.append(stride)
            stride *= d
        self.strides = tuple(reversed(strides))
        if self.block is None:
            total = 1
            for d in self.dims:
                total *= max(d, 0)
            self.block = HeapBlock(size=total * self.elem_size, label="array")

    def flat_length(self) -> int:
        total = 1
        for d in self.dims:
            total *= d
        return total

    def pointer(self) -> Pointer:
        return _pointer_at(self.block, 0, self.elem_type, self.elem_size)

    def subarray_pointer(self, indices: list[int]) -> Pointer:
        """Pointer to the element/subarray at the given leading indices."""
        if len(indices) > len(self.dims):
            raise MemoryFault("too many subscripts for array")
        offset = 0
        for idx, dim, stride in zip(indices, self.dims, self.strides):
            if idx < 0 or idx >= dim:
                raise MemoryFault(
                    f"array index {idx} out of bounds for dimension of size {dim}"
                )
            offset += idx * stride
        return _pointer_at(self.block, offset * self.elem_size, self.elem_type, self.elem_size)


def _pointer_at(block: HeapBlock, byte_offset: int, pointee: CType, elem_size: int) -> Pointer:
    """A ``Pointer`` whose ``elem_size`` the caller holds already (a
    pointer or array with the same pointee), so it is copied rather than
    recomputed.  Callers must pass ``sizeof_type(pointee)``."""
    ptr = object.__new__(Pointer)
    ptr.block = block
    ptr.byte_offset = byte_offset
    ptr.pointee = pointee
    ptr.elem_size = elem_size
    return ptr


RuntimeValue = Union[int, float, str, Pointer, CArray, _Uninitialized, None]


def coerce_to_type(value, ctype: CType):
    """Convert a scalar to the storage type's Python representation."""
    if isinstance(value, (Pointer, CArray, _Uninitialized)) or value is None:
        return value
    if ctype.is_pointer:
        return value
    if ctype.is_floating:
        return float(value)
    if isinstance(value, float):
        return int(value)
    if isinstance(value, str):
        return ord(value[0]) if value else 0
    if ctype.base in ("int", "unsigned int"):
        value = int(value)
        value &= 0xFFFFFFFF
        if ctype.base == "int" and value >= 0x80000000:
            value -= 0x100000000
        return value
    if ctype.base in ("char", "unsigned char"):
        value = int(value) & 0xFF
        if ctype.base == "char" and value >= 0x80:
            value -= 0x100
        return value
    return int(value)


def truthy(value) -> bool:
    """C truthiness of a runtime value."""
    if isinstance(value, _Uninitialized):
        return False
    if isinstance(value, (Pointer, CArray)):
        return True
    if value is None:
        return False
    if isinstance(value, str):
        return bool(value)
    return value != 0
