"""Process entry point: ``python -m vulnrank`` and the ``vulnrank`` script."""

import os
import sys


def main() -> int:
    # numpy's OpenBLAS starts one worker thread per extra CPU when it
    # loads, which cost train and predict 60-80 ms each on a 2-CPU
    # machine, and vulnrank's one BLAS call (a small dot product in
    # svm.train) never uses them. Outputs do not depend on the count, and a value the user
    # set wins. Only the process entry point sets it: vulnrank.cli.main
    # is also called in-process, where the environment is the caller's.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from vulnrank.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
