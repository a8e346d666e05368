"""Unit tests for the WATTCH-style power model (repro.arch.power)."""

import copy
import pickle

import numpy as np
import pytest

from repro.arch.config import CoreConfig
from repro.arch.pipeline import schedule_path
from repro.arch.power import PowerModel, PowerParams
from repro.programs.ir import Instr, MemRef, OpClass


def waveform_of(instrs, core=None):
    core = core or CoreConfig()
    model = PowerModel(core)
    return model, model.waveform(schedule_path(instrs, core))


class TestPowerModel:
    def test_empty_path_static_only(self):
        core = CoreConfig()
        model = PowerModel(core)
        wave = model.waveform(schedule_path([], core))
        assert len(wave) == 0

    def test_static_floor(self):
        model, wave = waveform_of([Instr(OpClass.IADD, dst="a")])
        assert np.all(wave >= model.params.static_per_cycle - 1e-12)

    def test_total_energy_conserved(self):
        """Integrated waveform = static + frontend + op energies."""
        core = CoreConfig(issue_width=1)
        instrs = [Instr(OpClass.IADD, dst=f"r{i}") for i in range(5)]
        model = PowerModel(core)
        sched = schedule_path(instrs, core)
        wave = model.waveform(sched)
        params = model.params
        expected = (
            sched.cycles * params.static_per_cycle
            + 5 * params.frontend_per_instr
            + 5 * params.op_energy[OpClass.IADD]
        )
        assert wave.sum() == pytest.approx(expected)

    def test_memory_ops_add_cache_energy(self):
        core = CoreConfig(issue_width=1)
        model = PowerModel(core)
        load = [Instr(OpClass.LOAD, dst="v", mem=MemRef("a"))]
        add = [Instr(OpClass.IADD, dst="v")]
        e_load = model.waveform(schedule_path(load, core)).sum()
        e_add = model.waveform(schedule_path(add, core)).sum()
        sched_l = schedule_path(load, core)
        sched_a = schedule_path(add, core)
        # Normalize out the static contribution of differing lengths.
        e_load -= sched_l.cycles * model.params.static_per_cycle
        e_add -= sched_a.cycles * model.params.static_per_cycle
        assert e_load > e_add

    def test_ooo_frontend_overhead(self):
        instrs = [Instr(OpClass.IADD, dst="a")]
        io_core = CoreConfig(kind="inorder", issue_width=1)
        ooo_core = CoreConfig(kind="ooo", issue_width=1, rob_size=8)
        io_model = PowerModel(io_core)
        ooo_model = PowerModel(ooo_core)
        e_io = io_model.waveform(schedule_path(instrs, io_core))
        e_ooo = ooo_model.waveform(schedule_path(instrs, ooo_core))
        static_io = len(e_io) * io_model.params.static_per_cycle
        static_ooo = len(e_ooo) * ooo_model.params.static_per_cycle
        assert e_ooo.sum() - static_ooo > e_io.sum() - static_io

    def test_stall_power_between_idle_and_active(self):
        model = PowerModel(CoreConfig())
        assert model.idle_power < model.stall_power

    def test_miss_energy_dram_larger(self):
        model = PowerModel(CoreConfig())
        assert model.miss_energy(to_dram=True) > model.miss_energy(to_dram=False)

    def test_heavy_ops_use_more_energy(self):
        params = PowerParams()
        assert params.op_energy[OpClass.IDIV] > params.op_energy[OpClass.IADD]
        assert params.op_energy[OpClass.SYSCALL] > params.op_energy[OpClass.CALL]


class TestPowerParams:
    def test_op_energy_is_read_only(self):
        params = PowerParams()
        with pytest.raises(TypeError):
            params.op_energy[OpClass.IADD] = 9.9

    def test_default_models_do_not_share_params(self):
        core = CoreConfig()
        a, b = PowerModel(core), PowerModel(core)
        assert a.params is not b.params
        assert a.params.op_energy[OpClass.IADD] == 0.08

    def test_given_mapping_is_copied(self):
        energies = dict(PowerParams().op_energy)
        params = PowerParams(op_energy=energies)
        energies[OpClass.IADD] = 9.9
        assert params.op_energy[OpClass.IADD] == 0.08

    def test_equal_params_compare_and_hash_equal(self):
        assert PowerParams() == PowerParams()
        assert hash(PowerParams()) == hash(PowerParams())
        energies = dict(PowerParams().op_energy)
        energies[OpClass.IADD] = 0.5
        assert PowerParams(op_energy=energies) != PowerParams()
        assert PowerParams(l1_access=0.2) != PowerParams()

    def test_pickles_and_copies(self):
        params = PowerParams(l1_access=0.2)
        assert pickle.loads(pickle.dumps(params)) == params
        assert copy.deepcopy(params) == params
