"""Branch prediction: gshare direction predictor + BTB + return stack.

Models the "aggressive branch speculation" of the paper's R10000-like
baseline.  The timing simulator consults it for every application-level
control transfer.  DISE-internal branches are never predicted (Section 2.2:
"since DISE branches are not predicted, a taken DISE branch is interpreted
as a mis-prediction"), and non-trigger replacement-sequence branches are
suppressed from prediction/BTB update — the simulator simply does not call
the predictor for them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class BranchPredictorConfig:
    gshare_bits: int = 14          # 16K 2-bit counters
    btb_entries: int = 2048
    ras_entries: int = 16

    def __post_init__(self):
        if self.btb_entries < 1:
            raise ConfigError(
                f"btb_entries must be at least 1, not {self.btb_entries}")
        if self.gshare_bits < 0 or self.ras_entries < 0:
            raise ConfigError("gshare_bits and ras_entries must not be "
                              "negative")


class BranchPredictor:
    """gshare + BTB + return-address stack."""

    def __init__(self, config: BranchPredictorConfig = BranchPredictorConfig()):
        self.config = config
        self._mask = (1 << config.gshare_bits) - 1
        self._counters = bytearray([2] * (1 << config.gshare_bits))
        self._history = 0
        self._btb = {}
        self._btb_entries = config.btb_entries
        self._ras = []
        self.cond_lookups = 0
        self.cond_mispredicts = 0
        self.target_lookups = 0
        self.target_mispredicts = 0

    # ------------------------------------------------------------------
    # Conditional direction prediction
    # ------------------------------------------------------------------
    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict direction for the conditional branch at ``pc``, update
        with the actual outcome, and return True iff mispredicted."""
        self.cond_lookups += 1
        index = ((pc >> 2) ^ self._history) & self._mask
        counter = self._counters[index]
        predicted_taken = counter >= 2
        if taken and counter < 3:
            self._counters[index] = counter + 1
        elif not taken and counter > 0:
            self._counters[index] = counter - 1
        self._history = ((self._history << 1) | (1 if taken else 0)) & self._mask
        mispredicted = predicted_taken != taken
        if mispredicted:
            self.cond_mispredicts += 1
        return mispredicted

    # ------------------------------------------------------------------
    # Target prediction (indirect jumps) and the return stack
    # ------------------------------------------------------------------
    def predict_indirect(self, pc: int, target: int, is_return=False,
                         is_call=False, return_addr=0) -> bool:
        """Predict the target of an indirect jump; True iff mispredicted."""
        self.target_lookups += 1
        mispredicted = False
        if is_return:
            predicted = self._ras.pop() if self._ras else None
            mispredicted = predicted != target
        else:
            index = (pc >> 2) % self._btb_entries
            predicted = self._btb.get(index)
            mispredicted = predicted != target
            self._btb[index] = target
        if is_call:
            self.push_return(return_addr)
        if mispredicted:
            self.target_mispredicts += 1
        return mispredicted

    def push_return(self, return_addr: int):
        self._ras.append(return_addr)
        if len(self._ras) > self.config.ras_entries:
            self._ras.pop(0)

    # ------------------------------------------------------------------
    @property
    def mispredicts(self) -> int:
        return self.cond_mispredicts + self.target_mispredicts

    @property
    def cond_mispredict_rate(self) -> float:
        if not self.cond_lookups:
            return 0.0
        return self.cond_mispredicts / self.cond_lookups


# ----------------------------------------------------------------------
# Phase-A outcome pass (see repro.sim.cycle, "outcome" engine)
# ----------------------------------------------------------------------
#: Per-op control actions for the timing kernel.  The kernel never sees
#: the predictor — only these codes.
ACT_NONE = 0          # no control effect on the front end
ACT_MISPREDICT = 1    # redirect fetch after resolve; counts as a mispredict
ACT_DISE_REDIRECT = 2  # taken DISE branch: same redirect, separate counter
ACT_END_GROUP = 3     # correctly-predicted taken transfer ends the group


class ControlOutcomes:
    """Result of one :func:`replay_control` pass: the per-op action column
    plus the branch-statistics totals the timing model reports."""

    __slots__ = ("actions", "cond_branches", "mispredicts", "dise_redirects")

    def __init__(self, actions, cond_branches, mispredicts, dise_redirects):
        self.actions = actions
        self.cond_branches = cond_branches
        self.mispredicts = mispredicts
        self.dise_redirects = dise_redirects


def replay_control(columns, predictor_config, predict_replacement,
                   passes=1) -> ControlOutcomes:
    """Replay a trace's control stream through a fresh predictor.

    Prediction outcomes are a pure function of the control-transfer stream
    and the predictor geometry — independent of caches, placement, widths
    and windows — so the cycle simulator's "outcome" engine runs this once
    per (trace, predictor config, replacement-prediction flag) and replays
    the action column under every other configuration axis.

    ``passes=2`` models ``warm_start`` (first pass trains only, second
    records).  Call set, arguments and ordering match the reference
    engine's replay loop exactly, so predictor state evolves identically.
    """
    from repro.sim.trace import (
        CC_CALL,
        CC_COND,
        CC_DISE,
        CC_INDIRECT,
        CC_RET,
        CTRL_SHIFT,
        DISEPC_SHIFT,
        META_TAKEN,
        META_TARGET,
        META_TRIGGER,
    )

    indirect = (CC_INDIRECT, CC_RET, CC_CALL)
    predictor = BranchPredictor(predictor_config)
    predict_cond = predictor.predict_and_update
    predict_target = predictor.predict_indirect
    pc_col = columns.pc
    meta_col = columns.meta
    tgt_col = columns.target
    n = len(pc_col)
    actions = bytearray(n)
    cond_branches = mispredicts = dise_redirects = 0
    for p in range(passes):
        record = p == passes - 1
        cond_branches = mispredicts = dise_redirects = 0
        for i in range(n):
            meta = meta_col[i]
            cc = (meta >> CTRL_SHIFT) & 0xF
            if not cc:
                continue
            pc = pc_col[i]
            taken = bool(meta & META_TAKEN)
            act = ACT_NONE
            if cc == CC_DISE:
                # Never predicted; a taken DISE branch redirects fetch.
                if taken:
                    act = ACT_DISE_REDIRECT
                    dise_redirects += 1
            elif not meta & META_TRIGGER:
                if predict_replacement and cc == CC_COND:
                    # Enhanced design: the predictor learns replacement
                    # branches, indexed by the PC:DISEPC pair.
                    cond_branches += 1
                    if predict_cond(
                        pc ^ ((meta >> DISEPC_SHIFT) << 4), taken
                    ):
                        act = ACT_MISPREDICT
                    elif taken:
                        act = ACT_END_GROUP
                elif predict_replacement and taken:
                    # Unconditional/indirect replacement transfer: the BTB
                    # learns the codeword's PC:DISEPC.
                    if predict_target(
                        pc ^ ((meta >> DISEPC_SHIFT) << 4), tgt_col[i]
                    ):
                        act = ACT_MISPREDICT
                    else:
                        act = ACT_END_GROUP
                elif taken:
                    # Paper's design: prediction suppressed, effectively
                    # predicted not-taken.
                    act = ACT_MISPREDICT
            elif cc == CC_COND:
                cond_branches += 1
                if predict_cond(pc, taken):
                    act = ACT_MISPREDICT
                elif taken:
                    act = ACT_END_GROUP
            elif cc in indirect:
                if meta & META_TARGET:
                    if predict_target(
                        pc, tgt_col[i],
                        is_return=cc == CC_RET, is_call=cc == CC_CALL,
                        return_addr=pc + 4,
                    ):
                        act = ACT_MISPREDICT
                    else:
                        act = ACT_END_GROUP
                else:
                    act = ACT_END_GROUP
            if act:
                if act == ACT_MISPREDICT:
                    mispredicts += 1
                if record:
                    actions[i] = act
    return ControlOutcomes(bytes(actions), cond_branches, mispredicts,
                           dise_redirects)
