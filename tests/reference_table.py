"""A fixed, hand-assigned comparison table for rendering tests.

Every cell is a pure function of its position in the canonical cell
order, so the table (and anything rendered from it) is identical on
every platform and run. The templates cover each rendering convention:
sub-0.0005 p-values, starred and unstarred cells, negative effects,
and untestable cells.
"""

from shoulderkin.stats import ComparisonCell, ComparisonTable, cell_keys

# (p, d); None marks an untestable cell
_TEMPLATES = (
    (0.0001234, 1.52),
    (0.017, 0.93),
    (0.65, 0.11),
    (0.003, -1.41),
    None,
    (0.12, -0.97),
    (0.049, 0.81),
    (0.05, 1.2),
    (0.8524, -0.05),
    (0.0004, -2.3),
    (0.999, 0.0),
    (0.02, 0.8),
)


def build_reference_table() -> ComparisonTable:
    cells = {}
    for i, key in enumerate(cell_keys()):
        template = _TEMPLATES[i % len(_TEMPLATES)]
        if template is None:
            cells[key] = None
            continue
        p, d = template
        cells[key] = ComparisonCell(
            t_stat=round(2.1 * d, 6),
            dof=30.0 + (i % 7),
            p_value=p,
            d=d,
            d_ci_low=d - 0.6,
            d_ci_high=d + 0.6,
        )
    return ComparisonTable(n1=20, n2=20, cells=cells)
