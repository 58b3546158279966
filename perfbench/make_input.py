"""Write the certificate inputs perfbench/data/F4.json.gz and F7.json.gz
from build_F(4) and build_F(7).

    python3 perfbench/make_input.py

The files are only inputs to the certificates; the benchmark checks each
with the oracle before every run and never uses it as a reference answer.
The gzip header carries no time stamp, so equal polynomials give equal files.
"""

import gzip
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from genlambda.minpoly import build_F  # noqa: E402


def main():
    for n in (4, 7):
        text = build_F(n, threads=1).to_json()
        out = os.path.join(HERE, "data", f"F{n}.json.gz")
        os.makedirs(os.path.dirname(out), exist_ok=True)
        with open(out, "wb") as raw, gzip.GzipFile(
            filename=f"F{n}.json", mode="wb", fileobj=raw, mtime=0
        ) as fh:
            fh.write(text.encode("utf-8"))
        print(f"wrote {out} ({len(text)} bytes of JSON)")


if __name__ == "__main__":
    main()
