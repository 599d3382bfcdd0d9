#!/usr/bin/env python3
# End to end: read a weighted collection, compress it onto the minimal
# number of registers, verify the result, and write a JSON report.
#
#   python demos/03_compress_collection.py [REPORT.json]
#
# Without an argument the report goes to a new temporary directory, so the
# demo never writes into the checkout.

import sys
import tempfile
from pathlib import Path

from paulicompress import compress, verify_equivalence
from paulicompress.io import read_collection, write_report

here = Path(__file__).parent
terms = read_collection(here / "data" / "ten_register_sample.pauli")
ops = [t.op for t in terms]

print(f"{len(terms)} terms on {ops[0].n} registers:")
for t in terms:
    print(f"  {t.weight!s:>22}  {t.op}")

result = compress(terms)
print(f"\nindependent generators: {result.basis.num_generators}")
print(f"commutation matrix rank: {2 * result.canonical.pair_count}")
print(f"minimal register count:  {result.q}")

print("\ncompressed images (weights carried through):")
for t in result.images:
    print(f"  {t.weight!s:>22}  {t.op}")

report = verify_equivalence(ops, [t.op for t in result.images])
print(f"\nall pairwise relations preserved: {report.pairwise_match}")
print(f"independent generator count preserved: {report.rank_match}")

if len(sys.argv) > 1:
    out = Path(sys.argv[1])
else:
    out = Path(tempfile.mkdtemp(prefix="paulicompress-demo-")) / "ten_register_sample.report.json"
verification = {
    "pairwise_match": report.pairwise_match,
    "rank_match": report.rank_match,
    "oracle_used": False,
}
write_report(result, out, verification)
print(f"\nreport written to {out}")
