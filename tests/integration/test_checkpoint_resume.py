"""The composition matrix's ``recovery`` cells, under this suite's old ids
(``test_composition_matrix`` owns the cells, checks and runs)."""

from tests.integration import test_composition_matrix as matrix
from tests.integration.test_composition_matrix import AXIS, PAPER_ENGINES, QIDS, Cell

test_resumed_run_matches_fault_free = matrix.view(
    lambda qid, engine: [Cell(qid, engine, "default", AXIS["default", "recovery"])],
    [(qid, engine) for qid in QIDS for engine in PAPER_ENGINES],
)
test_plan_actually_aborts_and_resumes_somewhere = (
    matrix.test_the_recovery_plan_aborts_and_resumes
)
