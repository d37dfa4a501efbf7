import os
import platform

import numpy as np


def assert_header(artifact, repeats=None):
    """Every ``repro.eval`` artifact carries the shared run header."""
    header = artifact["header"]
    assert header == {
        "host": platform.node(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": header["git_rev"],
        "repeats": repeats,
    }
    assert header["git_rev"] == "unknown" or len(header["git_rev"]) == 40
