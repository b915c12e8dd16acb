"""The word-level phi-cell test, the reference for `diagram.is_phi_cell`.

`is_phi_cell` is `diagram.is_phi_cell` as it was when it built phi(p) and
its inverse as words and compared the dataclasses with `==`, verbatim.
The program compares q's syllables with p's, read backwards, moved one
copy up and inverted, without building a word; this definition shares
only `face_cells` and `in_P` with it, so it can catch a fault in that
syllable comparison.
"""

from spheremotion.diagram import HowieDiagram, face_cells
from spheremotion.rewriting import in_P, phi


def is_phi_cell(d: HowieDiagram, f: int) -> bool:
    """A 2-gon reading t^-1 p t (p^phi)^-1 with p a nonidentity P-word."""
    if d.phi_s is None or len(d.map.faces[f]) != 2:
        return False
    cells = face_cells(d, f)
    if cells[0][1] == 1:
        cells = (cells[1], cells[0])
    (j1, s1, p), (j2, s2, q) = cells
    if (s1, s2) != (-1, 1) or j1 != j2:
        return False
    if p.is_identity() or not in_P(p, d.phi_s):
        return False
    return q == phi(p).inverse()
