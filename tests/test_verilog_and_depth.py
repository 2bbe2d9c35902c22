"""Tests for the Verilog writer and the flow's level discipline."""

import re


from repro.asic.celllib import CellLibrary
from repro.asic.techmap import tech_map
from repro.asic.verilog import (
    _verilog_expression,
    write_verilog,
    write_verilog_string,
)
from repro.sbm.config import FlowConfig
from repro.sbm.flow import sbm_flow


class TestVerilogWriter:
    def test_self_contained_module_structure(self, small_adder):
        netlist = tech_map(small_adder)
        text = write_verilog_string(netlist)
        # library cells emitted once each
        assert text.count("module INV") == 1
        assert "module add4" in text
        assert text.count("endmodule") >= 2
        # all instances reference emitted cells
        instantiated = set(re.findall(r"^  (\w+) g?\w+ \(", text, re.M))
        library_cells = {c.name for c in CellLibrary().cells}
        assert instantiated <= library_cells

    def test_without_library(self, small_adder):
        netlist = tech_map(small_adder)
        text = write_verilog_string(netlist, include_library=False)
        assert "module INV" not in text
        assert "module add4" in text

    def test_port_lists_complete(self, small_adder):
        netlist = tech_map(small_adder)
        text = write_verilog_string(netlist, include_library=False)
        for name in netlist.inputs:
            assert f"input {name};" in text
        for port, _net in netlist.outputs:
            assert f"output {port};" in text

    def test_file_output(self, tmp_path, small_adder):
        netlist = tech_map(small_adder)
        path = str(tmp_path / "adder.v")
        write_verilog(netlist, path)
        with open(path) as handle:
            assert "endmodule" in handle.read()

    def test_cell_expressions_match_functions(self):
        """The behavioural expression of every cell must encode its table."""
        from repro.tt.truthtable import TruthTable
        for cell in CellLibrary().cells:
            expression = _verilog_expression(cell)
            names = [chr(ord("a") + i) for i in range(cell.num_inputs)]
            table = TruthTable(cell.table, cell.num_inputs)
            for row in range(1 << cell.num_inputs):
                env = {name: bool((row >> i) & 1)
                       for i, name in enumerate(names)}
                py_expr = (expression.replace("~", " not ")
                           .replace("&", " and ").replace("|", " or ")
                           .replace("1'b1", "True").replace("1'b0", "False"))
                assert bool(eval(py_expr, {}, env)) == bool(table.value(row)), \
                    (cell.name, expression)

    def test_sanitization(self):
        from repro.asic.verilog import _sanitize
        assert _sanitize("net[3]") == "net_3_"
        assert _sanitize("3x") == "n3x"
        assert _sanitize("") == "unnamed"


class TestLevelDiscipline:
    def test_depth_budget_respected(self, random_aig_factory):
        from repro.sat.equivalence import assert_equivalent
        aig = random_aig_factory(10, 200, seed=5)
        optimized, stats = sbm_flow(
            aig, FlowConfig(iterations=1, max_depth_growth=1.0))
        assert optimized.depth <= max(1, aig.depth)
        assert_equivalent(aig, optimized)

    def test_no_budget_means_no_rollbacks(self, random_aig_factory):
        aig = random_aig_factory(8, 120, seed=6)
        _optimized, stats = sbm_flow(aig, FlowConfig(iterations=1))
        assert not any("rolled_back" in r.name for r in stats.records)
