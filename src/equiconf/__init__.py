"""Exact-arithmetic equivariant cohomology of configuration spaces.

Modules: exact linear/polynomial algebra over Q (`exactalg`),
configuration-space cohomology rings (`confring`), classifying-space rings
and Weyl groups (`charclasses`), the odd- and even-dimensional equivariant
models (`equiodd`, `equieven`), filtered complexes with pages, decalage and
purity (`specseq`), ideal-span oracles (`oracles`), verification suites
(`verify`) and the CLI (`cli`). The element algebra shared by the three
models, `confring.EdgeCombination`, lives in `confring`; `ConfElement`,
`equiodd.EquiElement` and `equieven.PageElement` are its subclasses.
"""

__version__ = "0.1.0"
