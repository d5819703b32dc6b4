"""Block / stack / model assembly with residual backcast chaining.

A block decomposes its input window, runs the trend and seasonal components
through independent graph + message-passing pathways, and maps each pathway's
final node embeddings through backcast and forecast heads.  Backcasts are
subtracted from the input of the next block; forecasts from every block sum
into the global prediction.

Six wiring variants are supported (ids "hgmts1".."hgmts6"): the full model,
graphs shared between pathways, graphs shared across all blocks and stacks,
no graph at all (encoder straight into the heads), no decomposition (one raw
pathway), and a single ungated GRU.  One graph key decides which pathways
share a graph: pathways with equal keys use the graph the first of them built
(and only that one owns the query/key projections); a None key means no graph.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .decomposition import decompose
from .latent_graph import GraphBatch, build_sparse_adjacency_batch, gamma_count, sample_count
from .message_passing import EDGE_BUDGET, MessagePassingUnit, edge_bytes
from .nn import MLP2, ParamRegistry

@dataclass(frozen=True)
class VariantWiring:
    graph_scope: str | None = "pathway"  # one graph per "pathway", per "block", per pathway "name"
    single_pathway: bool = False
    single_gru: bool = False

    def graph_key(self, stack: int, block: int, pathway: str) -> tuple | None:
        """Pathways with equal keys share one graph; None means no graph."""
        if self.graph_scope is None:
            return None
        return {"pathway": (stack, block, pathway), "block": (stack, block),
                "name": (pathway,)}[self.graph_scope]


WIRINGS: dict[str, VariantWiring] = {
    "hgmts1": VariantWiring(),
    "hgmts2": VariantWiring(graph_scope="block"),
    "hgmts3": VariantWiring(graph_scope="name"),
    "hgmts4": VariantWiring(graph_scope=None),
    "hgmts5": VariantWiring(single_pathway=True),
    "hgmts6": VariantWiring(single_gru=True),
}
VARIANT_IDS = tuple(WIRINGS)


@dataclass
class ModelConfig:
    """Every knob needed to rebuild a model exactly."""

    n_nodes: int
    input_len: int
    horizon: int
    embed_dim: int = 64
    hidden_dim: int | None = None  # defaults to embed_dim
    kernel: int = 25
    padding: str = "edge"
    gamma: float | None = None  # graph sparsity ratio; wins over sampling_c
    sampling_c: float | None = None
    rounds: int = 3
    stacks: int = 3
    blocks_per_stack: int = 1
    variant: str = "hgmts1"
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANT_IDS:
            raise ContractError(f"unknown variant {self.variant!r}; expected one of {VARIANT_IDS}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ContractError(f"kernel must be odd and >= 1, got {self.kernel}")
        if self.padding not in ("edge", "zero"):
            raise ContractError(f"padding must be 'edge' or 'zero', got {self.padding!r}")
        if self.stacks < 1 or self.blocks_per_stack < 1:
            raise ContractError(f"need at least one stack of at least one block, got "
                                f"stacks={self.stacks}, blocks_per_stack={self.blocks_per_stack}")
        for name in ("n_nodes", "input_len", "horizon", "embed_dim", "hidden_dim"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ContractError(f"{name} must be >= 1, got {value}")
        for name in ("rounds", "seed"):
            value = getattr(self, name)
            if value < 0:
                raise ContractError(f"{name} must be >= 0, got {value}")
        if self.gamma is not None and not 0 < self.gamma <= 1:
            raise ContractError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.sampling_c is not None and not (math.isfinite(self.sampling_c)
                                                and self.sampling_c > 0):
            raise ContractError(f"sampling_c must be finite and > 0, got {self.sampling_c}")

    @property
    def hidden(self) -> int:
        return self.hidden_dim if self.hidden_dim is not None else self.embed_dim

    def selection_size(self) -> int:
        """Queries kept per graph (and keys per query): from gamma, else c, else gamma 0.5."""
        if self.gamma is None and self.sampling_c is not None:
            return sample_count(self.sampling_c, self.n_nodes)
        return gamma_count(0.5 if self.gamma is None else self.gamma, self.n_nodes)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        if d.get("recompute_graph_each_round"):
            raise ContractError("recompute_graph_each_round=true is no longer supported: "
                                "graphs are built once per forward pass")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known - {"recompute_graph_each_round"})
        if unknown:
            raise ContractError(f"unknown model config keys {unknown}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
        if missing:
            raise ContractError(f"model config lacks the required keys {missing}")
        return cls(**{k: v for k, v in d.items() if k in known})


@dataclass
class BlockOutput:
    backcast: Tensor  # rows x L
    forecast: Tensor  # rows x K


@dataclass
class ForwardContext:
    """One pass's graphs and graph records; it dies with the pass, the model keeps nothing.

    ``step`` is the training step (None at inference); with the model seed and
    the pathway's place it is all that seeds a graph's key sample.  Only a pass
    with a step records a tape.  ``parallel`` says whether each block runs its
    two pathways on two threads (:func:`autodiff.both`), and so whether the
    step's backward pass drains its tape on two threads.
    """

    step: int | None = None
    collect: bool = False
    parallel: bool = False
    graphs: dict = field(default_factory=dict)  # graph key -> GraphBatch
    graph_records: list = field(default_factory=list)  # (stack, block, pathway, window, adj)


class Pathway:
    def __init__(self, reg: ParamRegistry, prefix: str, cfg: ModelConfig, *,
                 graph_key: tuple | None, owns_graph: bool, single_gru: bool):
        d, hid = cfg.embed_dim, cfg.hidden
        self.graph_key = graph_key
        self.unit = MessagePassingUnit(reg, prefix, cfg.input_len, d, hid, single_gru=single_gru,
                                       messages=graph_key is not None)
        self.wq: Tensor | None = reg.weight(f"{prefix}.wq", d, d) if owns_graph else None
        self.wk: Tensor | None = reg.weight(f"{prefix}.wk", d, d) if owns_graph else None
        self.backcast_head = MLP2(reg, f"{prefix}.backcast", d, hid, cfg.input_len)
        self.forecast_head = MLP2(reg, f"{prefix}.forecast", d, hid, cfg.horizon)


class Block:
    def __init__(self, reg: ParamRegistry, cfg: ModelConfig, wiring: VariantWiring,
                 stack_index: int, block_index: int, claimed_keys: set):
        self.cfg = cfg
        self.wiring = wiring
        self.stack_index = stack_index
        self.block_index = block_index
        prefix = f"stack{stack_index}.block{block_index}"
        names = ("main",) if wiring.single_pathway else ("seas", "trend")
        self.pathways: dict[str, Pathway] = {}
        for name in names:
            key = wiring.graph_key(stack_index, block_index, name)
            self.pathways[name] = Pathway(
                reg, f"{prefix}.{name}", cfg, graph_key=key, single_gru=wiring.single_gru,
                owns_graph=key is not None and key not in claimed_keys)
            claimed_keys.add(key)

    def _build_graph(self, pathway_name: str, h: Tensor, ctx: ForwardContext) -> GraphBatch:
        """The batch's sparse graphs over the stacked embedding rows.

        Every window shares one key sample, seeded by (model seed, stack, block,
        pathway index) and, in training, the step as spawn key.  Reads only
        ``ctx.step``, so both pathways may build at once.
        """
        cfg = self.cfg
        pw = self.pathways[pathway_name]
        seed = np.random.SeedSequence(
            [cfg.seed, self.stack_index, self.block_index, list(self.pathways).index(pathway_name)],
            spawn_key=() if ctx.step is None else (ctx.step,),
        )
        return build_sparse_adjacency_batch(
            h, pw.wq, pw.wk, cfg.n_nodes, cfg.selection_size(), seed
        )

    def _encode(self, name: str, comp: Tensor, ctx: ForwardContext) -> tuple:
        """Phase 1 of a pathway: its embeddings, and the graphs it owns (else None)."""
        pw = self.pathways[name]
        h = pw.unit.encode_nodes(comp)
        return h, self._build_graph(name, h, ctx) if pw.wq is not None else None

    def _heads(self, name: str, h: Tensor, ctx: ForwardContext) -> tuple:
        """Phase 2 of a pathway: its rounds, then its backcast and forecast heads."""
        pw = self.pathways[name]
        if pw.graph_key is not None:
            h = pw.unit.run(h, ctx.graphs[pw.graph_key], self.cfg.rounds)
        return pw.backcast_head(h), pw.forecast_head(h)

    def forward(self, x: Tensor, ctx: ForwardContext) -> BlockOutput:
        """Decompose, run each pathway, and sum the head outputs.

        Two phases, each over every pathway: encode and build the graph the
        pathway owns (a shared graph's owner is the first pathway to use it),
        then the rounds and heads.  With ``ctx.parallel``, each phase runs the
        two pathways on two threads.  Each phase's results are committed to
        ``ctx`` and summed in pathway order afterwards, so every array goes
        through the same ops as in a serial pass.
        """
        cfg = self.cfg
        if self.wiring.single_pathway:
            states = {"main": x}
        else:
            dec = decompose(x, cfg.kernel, cfg.padding)
            states = {"seas": dec.seasonal, "trend": dec.trend}
            del dec  # the components die with phase 1

        def each(phase):  # phase(name, state, ctx) over the pathways, in pathway order
            if ctx.parallel:
                (a, state_a), (b, state_b) = states.items()
                return ad.both(lambda: phase(a, state_a, ctx), lambda: phase(b, state_b, ctx), True)
            return [phase(name, state, ctx) for name, state in states.items()]

        for name, (h, graphs) in zip(list(states), each(self._encode)):
            states[name] = h
            if graphs is not None:
                ctx.graphs[self.pathways[name].graph_key] = graphs
                if ctx.collect:
                    ctx.graph_records.extend(
                        (self.stack_index, self.block_index, name, b, adj)
                        for b, adj in enumerate(graphs))
        (backcast, forecast), *rest = each(self._heads)
        for bc, fc in rest:
            backcast, forecast = ad.add(backcast, bc), ad.add(forecast, fc)
        return BlockOutput(backcast=backcast, forecast=forecast)


class Model:
    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.wiring = WIRINGS[cfg.variant]
        self.registry = ParamRegistry(cfg.seed)
        claimed: set = set()
        self.stacks: list[list[Block]] = [
            [Block(self.registry, cfg, self.wiring, si, bi, claimed)
             for bi in range(cfg.blocks_per_stack)]
            for si in range(cfg.stacks)
        ]

    # -- forward ------------------------------------------------------------

    def forward_batch(self, windows, collect: bool = False, step: int | None = None):
        """Run a batch of (N, L) windows stacked into one pass.

        Returns (forecast rows x K, residual rows x L, ctx) where rows are the
        windows' node rows concatenated in order.  A pure function of the
        parameters, the windows and ``step``: training passes its step count so
        key samples vary between steps; at inference (step None) each window's
        rows do not depend on the call history or on the other windows.  The
        pass records a tape exactly when ``step`` is given: an inference pass
        computes the same values and keeps no parents, closures or saved arrays.
        A batch holding a NaN or infinite value, or whose message round would
        need more than ``EDGE_BUDGET`` bytes of edge arrays, is refused before
        any work.  Two pathways whose stacked (rows, embed_dim) states hold at
        least ``ad.PARALLEL_MIN_SIZE`` elements run on two threads;
        ``ctx.parallel`` records that choice.
        """
        arr = np.asarray(windows, dtype=np.float64)
        if arr.ndim not in (2, 3):
            raise ContractError(f"forward_batch takes an (N, L) window or a (B, N, L) batch, "
                                f"got shape {arr.shape}")
        if arr.ndim == 2:
            arr = arr[None]
        batch, n_nodes, length = arr.shape
        if n_nodes != self.cfg.n_nodes or length != self.cfg.input_len:
            raise ContractError(
                f"window shape {(n_nodes, length)} does not match configured "
                f"({self.cfg.n_nodes}, {self.cfg.input_len})"
            )
        if not np.isfinite(arr).all():
            b, node, t = np.argwhere(~np.isfinite(arr))[0]
            raise ContractError(f"window {b}, node {node}, step {t} holds {arr[b, node, t]}; "
                                "forward_batch takes finite windows only")
        n = self.cfg.selection_size()
        estimate = edge_bytes(batch, n, self.cfg.hidden)
        if self.wiring.graph_scope is not None and estimate > EDGE_BUDGET:
            raise ContractError(
                f"a message round over a batch of {batch} windows with n={n} would hold "
                f"about {estimate / 2**20:,.0f} MiB of (B, n, n, H) edge arrays, over the "
                f"{EDGE_BUDGET / 2**20:,.0f} MiB budget; use a smaller batch or gamma")
        x = Tensor(arr.reshape(batch * n_nodes, length))
        ctx = ForwardContext(step=step, collect=collect, parallel=(
            not self.wiring.single_pathway
            and batch * n_nodes * self.cfg.embed_dim >= ad.PARALLEL_MIN_SIZE))
        residual = x
        forecast = None
        with ad.recording(step is not None):
            for stack in self.stacks:
                for block in stack:
                    out = block.forward(residual, ctx)
                    residual = ad.sub(residual, out.backcast)
                    forecast = out.forecast if forecast is None else ad.add(forecast, out.forecast)
        return forecast, residual, ctx

    def forward(self, x) -> Tensor:
        forecast, _, _ = self.forward_batch(x)
        return forecast

    # -- bookkeeping ----------------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        return self.registry.params

    def graph_builds_per_window(self) -> int:
        """How many adjacencies one forward pass infers per window."""
        keys = {pw.graph_key for stack in self.stacks for b in stack for pw in b.pathways.values()}
        return len(keys - {None})

    # -- persistence ----------------------------------------------------------

    def save(self, path, run_info: dict | None = None) -> None:
        config = {"model": self.cfg.to_dict(), "run": run_info or {}}
        save_checkpoint(path, self.registry.named_values(), config)


def build_variant(cfg: ModelConfig) -> Model:
    """Construct the wiring named by cfg.variant (ids hgmts1..hgmts6)."""
    return Model(cfg)


def load_model(path) -> tuple[Model, dict]:
    """Rebuild a model from a checkpoint; returns (model, run_info)."""
    values, config, _ = load_checkpoint(path)
    if "model" not in config:
        raise ContractError(f"checkpoint {path} has no 'model' section in its config")
    model = build_variant(ModelConfig.from_dict(config["model"]))
    model.registry.load_values(values)
    return model, config.get("run", {})

