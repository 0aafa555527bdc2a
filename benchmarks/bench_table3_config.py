"""Table III: the simulator configuration."""

from repro.experiments import table3_config


def test_table3_config(once):
    tables = once(table3_config.compute)
    print("\n" + table3_config.render())
    paper = dict(tables["paper"])
    assert paper["# SMs"] == "80"
    assert paper["Sub-cores / SM"] == "4"
    assert paper["Warp Buffer Size"] == "8"
    assert paper["Max Warps / SM"] == "64"
    assert paper["HSU Euclid / Angular Width"] == "16 / 8"
