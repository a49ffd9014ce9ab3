import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_processes_left():
    """Fail a test that leaves a live child process (a pool worker that was
    never joined, say)."""
    yield
    children = multiprocessing.active_children()
    if children:
        for child in children:
            child.terminate()
            child.join()
        pytest.fail(f"the test left {len(children)} child processes: {children}")
