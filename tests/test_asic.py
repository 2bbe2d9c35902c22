"""Tests for the ASIC substrate: library, techmap, STA, power, placement."""

import random

import pytest

from repro.aig.aig import Aig, lit_not
from repro.aig.simulate import po_words, simulate_words
from repro.asic.celllib import CellLibrary, default_cells
from repro.asic.place import place, wire_capacitance
from repro.asic.power import analyze_power, simulate_netlist, switching_activities
from repro.asic.sta import analyze_timing
from repro.asic.techmap import tech_map
from repro.tt.truthtable import TruthTable


@pytest.fixture(scope="module")
def library():
    return CellLibrary()


class TestCellLibrary:
    def test_all_two_input_functions_match(self, library):
        """Every nontrivial 2-input function must be realizable."""
        for bits in range(16):
            t = TruthTable(bits, 2)
            if not t.support() == [0, 1]:
                continue  # constants and single-variable functions
            assert library.match(bits, 2) is not None, bin(bits)

    def test_match_semantics(self, library):
        """A match must actually compute the requested function."""
        checked = 0
        for bits in range(256):
            match = library.match(bits, 3)
            if match is None:
                continue
            checked += 1
            cell_table = TruthTable(match.cell.table, match.cell.num_inputs)
            for row in range(8):
                leaf_values = [(row >> i) & 1 for i in range(3)]
                pins = []
                for j in range(match.cell.num_inputs):
                    v = leaf_values[match.pin_leaf[j]]
                    pins.append(v ^ match.pin_compl[j])
                pin_row = sum(b << j for j, b in enumerate(pins))
                out = cell_table.value(pin_row) ^ match.output_compl
                assert out == (bits >> row) & 1, (bin(bits), match)
        assert checked > 50  # the library realizes ~100 of 256 3-input functions

    def test_inverter_lookup(self, library):
        assert library.inverter.name == "INV"
        with pytest.raises(KeyError):
            library.cell_by_name("NAND17")

    def test_cell_tables_consistent(self):
        for cell in default_cells():
            assert 0 <= cell.table < (1 << (1 << cell.num_inputs))
            assert cell.area > 0


class TestTechMap:
    def test_functional_equivalence(self, random_aig_factory, library):
        rng = random.Random(1)
        for seed in range(4):
            aig = random_aig_factory(8, 120, seed=seed)
            netlist = tech_map(aig, library)
            for _ in range(3):
                words = [rng.getrandbits(64) for _ in range(aig.num_pis)]
                golden = po_words(aig, simulate_words(aig, words))
                inputs = {aig.pi_name(i): words[i] for i in range(aig.num_pis)}
                values = simulate_netlist(netlist, inputs)
                assert [values[net] for _p, net in netlist.outputs] == golden

    def test_gates_topologically_ordered(self, random_aig_factory, library):
        aig = random_aig_factory(6, 80, seed=5)
        netlist = tech_map(aig, library)
        defined = set(netlist.inputs) | {"tie0", "tie1"}
        for gate in netlist.gates:
            for net in gate.inputs:
                assert net in defined, net
            defined.add(gate.output)

    def test_complemented_po(self, library):
        aig = Aig()
        a, b = aig.add_pis(2)
        aig.add_po(lit_not(aig.add_and(a, b)))
        netlist = tech_map(aig, library)
        values = simulate_netlist(netlist, {aig.pi_name(0): 0b11,
                                            aig.pi_name(1): 0b01})
        assert values[netlist.outputs[0][1]] & 0b11 == 0b10

    def test_area_positive(self, small_adder, library):
        netlist = tech_map(small_adder, library)
        assert netlist.area > 0
        assert netlist.leakage > 0


class TestSta:
    def test_arrival_monotone_along_paths(self, small_adder, library):
        netlist = tech_map(small_adder, library)
        report = analyze_timing(netlist, clock_period=100.0)
        for gate in netlist.gates:
            out_at = report.arrival[gate.output]
            for net in gate.inputs:
                assert out_at > report.arrival.get(net, 0.0)

    def test_slack_sign(self, small_adder, library):
        netlist = tech_map(small_adder, library)
        loose = analyze_timing(netlist, clock_period=1e9)
        assert loose.met and loose.tns == 0.0
        tight = analyze_timing(netlist, loose.critical_path_delay * 0.5)
        assert not tight.met
        assert tight.wns < 0
        assert tight.tns <= tight.wns

    def test_placement_increases_delay(self, small_adder, library):
        netlist = tech_map(small_adder, library)
        unplaced = analyze_timing(netlist, 100.0)
        placed = analyze_timing(netlist, 100.0, place(netlist))
        # die-scaled wire caps should not reduce the critical path
        assert placed.critical_path_delay >= unplaced.critical_path_delay * 0.5


class TestPower:
    def test_activity_bounds(self, small_adder, library):
        netlist = tech_map(small_adder, library)
        for activity in switching_activities(netlist).values():
            assert 0.0 <= activity <= 1.0

    def test_power_positive_and_scales_with_size(self, library,
                                                 random_aig_factory):
        small = tech_map(random_aig_factory(6, 30, seed=6), library)
        big = tech_map(random_aig_factory(6, 200, seed=6), library)
        p_small = analyze_power(small).dynamic
        p_big = analyze_power(big).dynamic
        assert 0 < p_small < p_big


class TestPlacement:
    def test_positions_inside_die(self, small_adder, library):
        netlist = tech_map(small_adder, library)
        placement = place(netlist)
        for x, y in placement.positions.values():
            assert 0 <= x <= placement.die_side
            assert 0 <= y <= placement.die_side * 1.5

    def test_wirelength_positive(self, small_adder, library):
        netlist = tech_map(small_adder, library)
        assert place(netlist).total_wirelength > 0

    def test_wire_capacitance_grows_with_fanout(self):
        assert wire_capacitance("n", 8) > wire_capacitance("n", 1)

    def test_empty_netlist(self):
        from repro.asic.techmap import Netlist
        placement = place(Netlist("empty"))
        assert placement.total_wirelength == 0.0
