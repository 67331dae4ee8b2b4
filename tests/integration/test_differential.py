"""The composition matrix's ``bench`` base cells, under this suite's old ids
(``test_composition_matrix`` owns the cells, checks and runs)."""

from tests.integration import test_composition_matrix as matrix
from tests.integration.test_composition_matrix import PAPER_ENGINES, QIDS, Cell

test_engine_row_bags_match_reference = matrix.view(
    lambda qid, engine: [Cell(qid, engine, "bench")],
    [(qid, engine) for qid in QIDS for engine in PAPER_ENGINES],
)
test_oracle_non_vacuous = matrix.test_reference_is_non_vacuous
