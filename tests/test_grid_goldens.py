"""Exact float64 goldens for every path that builds a few-step sigma grid.

The values are float.hex strings, so a change of one ulp in any grid, in
`schedule print`'s output or in `reproduce_tables()`'s computed rows fails
here, where the 2e-3 golden tolerance of the paper's table would not.
"""

import pytest

from flowlab.cli import main, reproduce_tables
from flowlab.distill import default_grid

ONE, ZERO = "0x1.0000000000000p+0", "0x0.0p+0"

# default_grid(4, shift, sampler=...).boundaries, as float.hex
GRIDS = {
    ("original", 0.5): [ONE, "0x1.00189763ff9dap-1", "0x1.9a17846b49b3dp-3",
                        "0x1.06573bc1becc9p-12", ZERO],
    ("original", 1.0): [ONE, "0x1.55810624dd2f2p-1", "0x1.5604189374bc7p-2",
                        "0x1.0624dd2f1a9fcp-10", ZERO],
    ("original", 3.0): [ONE, "0x1.b723723723723p-1", "0x1.344d1344d1344p-1",
                        "0x1.2492492492493p-7", ZERO],
    ("improved", 0.5): [ONE, "0x1.3333333333333p-1", "0x1.5555555555555p-2",
                        "0x1.2492492492492p-3", ZERO],
    ("improved", 1.0): [ONE, "0x1.8000000000000p-1", "0x1.0000000000000p-1",
                        "0x1.0000000000000p-2", ZERO],
    ("improved", 3.0): [ONE, "0x1.ccccccccccccdp-1", "0x1.8000000000000p-1",
                        "0x1.0000000000000p-1", ZERO],
}

# stdout of `flowlab schedule print --steps 4 --shift S --sampler NAME`
PRINTED = {
    ("original", 0.5): "1\n0.500187617\n0.200240168\n0.000250187641\n0\n",
    ("original", 1.0): "1\n0.667\n0.334\n0.001\n0\n",
    ("original", 3.0): "1\n0.857692308\n0.602150538\n0.00892857143\n0\n",
    ("improved", 0.5): "1\n0.6\n0.333333333\n0.142857143\n0\n",
    ("improved", 1.0): "1\n0.75\n0.5\n0.25\n0\n",
    ("improved", 3.0): "1\n0.9\n0.75\n0.5\n0\n",
}


@pytest.mark.parametrize("sampler, shift", sorted(GRIDS))
def test_default_grid_exact(sampler, shift):
    grid = default_grid(4, shift, sampler=sampler)
    assert [float(b).hex() for b in grid.boundaries] == GRIDS[sampler, shift]


@pytest.mark.parametrize("sampler, shift", sorted(PRINTED))
def test_schedule_print_exact(capsys, sampler, shift):
    argv = ["schedule", "print", "--steps", "4", "--shift", str(shift),
            "--sampler", sampler]
    assert main(argv) == 0
    assert capsys.readouterr().out == PRINTED[sampler, shift]


def test_reproduce_tables_exact():
    report = reproduce_tables(printer=lambda *_: None)
    rows = [(row["method"], row["shift"], [x.hex() for x in row["computed"]])
            for row in report["rows"]]
    assert rows == [(name, shift, GRIDS[name, shift])
                    for name, shift in [("original", 1.0), ("original", 3.0),
                                        ("improved", 1.0), ("improved", 3.0)]]
    assert report["prezero_sigma"]["computed"].hex() == GRIDS["original", 3.0][-2]
