"""Host-side index space classes: ``range``, ``id``, ``nd_range`` (SYCL 2020)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple, Union

RangeLike = Union["Range", Sequence[int], int]


def _normalize(dims: RangeLike) -> Tuple[int, ...]:
    if isinstance(dims, Range):
        return dims.sizes
    if isinstance(dims, ID):
        return dims.indices
    if isinstance(dims, int):
        return (dims,)
    return tuple(int(d) for d in dims)


@dataclass(frozen=True)
class Range:
    """A 1-3 dimensional extent (``sycl::range<D>``)."""

    sizes: Tuple[int, ...]

    def __init__(self, *sizes: Union[int, Sequence[int]]):
        if len(sizes) == 1 and not isinstance(sizes[0], int):
            values = tuple(int(s) for s in sizes[0])
        else:
            values = tuple(int(s) for s in sizes)
        if not 1 <= len(values) <= 3:
            raise ValueError("Range must have between 1 and 3 dimensions")
        if any(s < 0 for s in values):
            raise ValueError("Range extents must be non-negative")
        object.__setattr__(self, "sizes", values)

    @property
    def dimensions(self) -> int:
        return len(self.sizes)

    def size(self) -> int:
        total = 1
        for s in self.sizes:
            total *= s
        return total

    def get(self, dim: int) -> int:
        return self.sizes[dim]

    def __getitem__(self, dim: int) -> int:
        return self.sizes[dim]

    def __iter__(self) -> Iterator[int]:
        return iter(self.sizes)

    def __len__(self) -> int:
        return len(self.sizes)

    def __str__(self) -> str:
        return f"range<{self.dimensions}>{self.sizes}"


@dataclass(frozen=True)
class ID:
    """A point in an index space (``sycl::id<D>``)."""

    indices: Tuple[int, ...]

    def __init__(self, *indices: Union[int, Sequence[int]]):
        if len(indices) == 1 and not isinstance(indices[0], int):
            values = tuple(int(i) for i in indices[0])
        else:
            values = tuple(int(i) for i in indices)
        if not 1 <= len(values) <= 3:
            raise ValueError("ID must have between 1 and 3 dimensions")
        object.__setattr__(self, "indices", values)

    def get(self, dim: int) -> int:
        return self.indices[dim]

    def __getitem__(self, dim: int) -> int:
        return self.indices[dim]

    def __str__(self) -> str:
        return f"id<{self.dimensions}>{self.indices}"


@dataclass(frozen=True)
class NDRange:
    """Global + local iteration space (``sycl::nd_range<D>``)."""

    global_range: Range
    local_range: Range

    def __init__(self, global_range: RangeLike, local_range: RangeLike):
        global_r = global_range if isinstance(global_range, Range) \
            else Range(_normalize(global_range))
        local_r = local_range if isinstance(local_range, Range) \
            else Range(_normalize(local_range))
        if global_r.dimensions != local_r.dimensions:
            raise ValueError("global and local ranges must have the same rank")
        for g, l in zip(global_r, local_r):
            if l == 0 or g % l != 0:
                raise ValueError(
                    f"global range {g} is not divisible by local range {l}")
        object.__setattr__(self, "global_range", global_r)
        object.__setattr__(self, "local_range", local_r)

    @property
    def group_range(self) -> Range:
        return Range(tuple(g // l for g, l in
                           zip(self.global_range, self.local_range)))

    def num_work_items(self) -> int:
        return self.global_range.size()

    def num_work_groups(self) -> int:
        return self.group_range.size()

    def work_group_size(self) -> int:
        return self.local_range.size()

    def __str__(self) -> str:
        return f"nd_range<{self.dimensions}>({self.global_range}, {self.local_range})"


def linearize(indices: Sequence[int], extents: Sequence[int]) -> int:
    """Row-major linearization of a multi-dimensional index."""
    linear = 0
    for idx, extent in zip(indices, extents):
        linear = linear * extent + idx
    return linear


def delinearize(linear: int, extents: Sequence[int]) -> Tuple[int, ...]:
    """Inverse of :func:`linearize`."""
    indices = []
    for extent in reversed(list(extents)):
        indices.append(linear % extent)
        linear //= extent
    return tuple(reversed(indices))
