"""Block / stack / model assembly with residual backcast chaining.

A block decomposes its input window, runs the trend and seasonal components
through independent graph + message-passing pathways, and maps each pathway's
final node embeddings through backcast and forecast heads.  Backcasts are
subtracted from the input of the next block; forecasts from every block sum
into the global prediction.

Six wiring variants are supported (ids "hgmts1".."hgmts6"): the full model,
graphs shared between pathways, graphs shared across all blocks and stacks,
no graph at all (encoder straight into the heads), no decomposition (one raw
pathway), and a single ungated GRU.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .decomposition import decompose
from .latent_graph import (
    GraphBatch,
    build_sparse_adjacency_batch,
    c_for_gamma,
    sample_count,
)
from .message_passing import MessagePassingUnit
from .nn import MLP2, Parameter, ParamRegistry

VARIANT_IDS = ("hgmts1", "hgmts2", "hgmts3", "hgmts4", "hgmts5", "hgmts6")


@dataclass(frozen=True)
class VariantWiring:
    share_graph_across_pathways: bool = False
    share_graph_across_blocks: bool = False
    disable_graph: bool = False
    single_pathway: bool = False
    single_gru: bool = False


WIRINGS: dict[str, VariantWiring] = {
    "hgmts1": VariantWiring(),
    "hgmts2": VariantWiring(share_graph_across_pathways=True),
    "hgmts3": VariantWiring(share_graph_across_blocks=True),
    "hgmts4": VariantWiring(disable_graph=True),
    "hgmts5": VariantWiring(single_pathway=True),
    "hgmts6": VariantWiring(single_gru=True),
}


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
    recompute_graph_each_round: bool = False

    def __post_init__(self):
        if self.variant not in VARIANT_IDS:
            raise ContractError(f"unknown variant {self.variant!r}; expected one of {VARIANT_IDS}")
        if self.kernel % 2 == 0:
            raise ContractError(f"kernel must be odd, got {self.kernel}")

    @property
    def hidden(self) -> int:
        return self.hidden_dim if self.hidden_dim is not None else self.embed_dim

    def resolved_c(self) -> float:
        if self.gamma is not None:
            return c_for_gamma(self.gamma, self.n_nodes)
        if self.sampling_c is not None:
            return self.sampling_c
        return c_for_gamma(0.5, self.n_nodes)

    def selection_size(self) -> int:
        return sample_count(self.resolved_c(), self.n_nodes)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})


@dataclass
class BlockOutput:
    backcast: Tensor  # rows x L
    forecast: Tensor  # rows x K


@dataclass
class BlockRecord:
    """Per-block detail kept when a forward pass runs with collect=True."""

    stack: int
    block: int
    pathway_outputs: dict[str, tuple[Tensor, Tensor]]  # name -> (backcast, forecast)
    output: BlockOutput


@dataclass
class ForwardContext:
    """Per-pass state: graph caches for sharing variants, seeds, and records."""

    seed: int
    pass_index: int = 0
    collect: bool = False
    shared_edges: dict = field(default_factory=dict)  # variant 3: pathway -> GraphBatch
    block_edges: dict = field(default_factory=dict)  # variant 2: block key -> GraphBatch
    graph_records: list = field(default_factory=list)  # (stack, block, pathway, window, adj)
    block_records: list = field(default_factory=list)
    graph_builds: int = 0


class Pathway:
    def __init__(self, reg: ParamRegistry, prefix: str, cfg: ModelConfig, *,
                 messages: bool, single_gru: bool, owns_graph: bool):
        d, hid = cfg.embed_dim, cfg.hidden
        self.unit = MessagePassingUnit(
            reg, prefix, cfg.input_len, d, hid, single_gru=single_gru, messages=messages
        )
        self.wq: Parameter | None = reg.weight(f"{prefix}.wq", d, d) if owns_graph else None
        self.wk: Parameter | None = reg.weight(f"{prefix}.wk", d, d) if owns_graph else None
        self.backcast_head = MLP2(reg, f"{prefix}.backcast", d, hid, cfg.input_len)
        self.forecast_head = MLP2(reg, f"{prefix}.forecast", d, hid, cfg.horizon)


class Block:
    def __init__(self, reg: ParamRegistry, cfg: ModelConfig, wiring: VariantWiring,
                 stack_index: int, block_index: int, first_block: bool):
        self.cfg = cfg
        self.wiring = wiring
        self.stack_index = stack_index
        self.block_index = block_index
        prefix = f"stack{stack_index}.block{block_index}"
        names = ("main",) if wiring.single_pathway else ("seas", "trend")
        self.pathways: dict[str, Pathway] = {}
        for name in names:
            owns = self._owns_graph(name, first_block)
            self.pathways[name] = Pathway(
                reg,
                f"{prefix}.{name}",
                cfg,
                messages=not wiring.disable_graph,
                single_gru=wiring.single_gru,
                owns_graph=owns,
            )

    def _owns_graph(self, name: str, first_block: bool) -> bool:
        if self.wiring.disable_graph:
            return False
        if self.wiring.share_graph_across_blocks and not first_block:
            return False
        if self.wiring.share_graph_across_pathways and name == "trend":
            return False
        return True

    def _build_edges(self, pathway_name: str, h: Tensor, batch: int,
                     ctx: ForwardContext) -> GraphBatch:
        """The batch's sparse graphs over the stacked embedding rows."""
        cfg = self.cfg
        pw = self.pathways[pathway_name]
        path_idx = list(self.pathways).index(pathway_name)
        seed = np.random.SeedSequence(
            [
                ctx.seed & 0x7FFFFFFF,
                ctx.pass_index,
                self.stack_index,
                self.block_index,
                path_idx,
                ctx.graph_builds,
            ]
        )
        graphs = build_sparse_adjacency_batch(
            h, pw.wq.tensor, pw.wk.tensor, cfg.n_nodes, cfg.selection_size(), batch, seed
        )
        ctx.graph_builds += batch
        if ctx.collect:
            ctx.graph_records.extend(
                (self.stack_index, self.block_index, pathway_name, b, adj)
                for b, adj in enumerate(graphs)
            )
        return graphs

    def _graph_fn(self, pathway_name: str, batch: int, ctx: ForwardContext):
        wiring = self.wiring

        def fn(h: Tensor) -> GraphBatch:
            if wiring.share_graph_across_blocks:
                cached = ctx.shared_edges.get(pathway_name)
                if cached is not None:
                    return cached
                edges = self._build_edges(pathway_name, h, batch, ctx)
                ctx.shared_edges[pathway_name] = edges
                return edges
            if wiring.share_graph_across_pathways:
                key = (self.stack_index, self.block_index)
                if pathway_name == "trend":
                    return ctx.block_edges[key]  # seas pathway ran first
                edges = self._build_edges(pathway_name, h, batch, ctx)
                ctx.block_edges[key] = edges
                return edges
            return self._build_edges(pathway_name, h, batch, ctx)

        return fn

    def forward(self, x: Tensor, batch: int = 1, ctx: ForwardContext | None = None) -> BlockOutput:
        """Decompose, run each pathway, and sum the head outputs."""
        cfg = self.cfg
        if ctx is None:
            ctx = ForwardContext(seed=cfg.seed)
        if self.wiring.single_pathway:
            components = {"main": x}
        else:
            dec = decompose(x, cfg.kernel, cfg.padding)
            components = {"seas": dec.seasonal, "trend": dec.trend}
        backcast = None
        forecast = None
        pieces: dict[str, tuple[Tensor, Tensor]] = {}
        for name, comp in components.items():
            pw = self.pathways[name]
            if self.wiring.disable_graph:
                h_final = pw.unit.encode_nodes(comp)
            else:
                h_final = pw.unit.run(
                    comp,
                    self._graph_fn(name, batch, ctx),
                    cfg.rounds,
                    recompute_each_round=cfg.recompute_graph_each_round,
                )
            bc = pw.backcast_head(h_final)
            fc = pw.forecast_head(h_final)
            pieces[name] = (bc, fc)
            backcast = bc if backcast is None else ad.add(backcast, bc)
            forecast = fc if forecast is None else ad.add(forecast, fc)
        out = BlockOutput(backcast=backcast, forecast=forecast)
        if ctx.collect:
            ctx.block_records.append(
                BlockRecord(self.stack_index, self.block_index, pieces, out)
            )
        return out


class Model:
    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.wiring = WIRINGS[cfg.variant]
        self.registry = ParamRegistry(cfg.seed)
        self.stacks: list[list[Block]] = []
        first = True
        for si in range(cfg.stacks):
            blocks = []
            for bi in range(cfg.blocks_per_stack):
                blocks.append(Block(self.registry, cfg, self.wiring, si, bi, first))
                first = False
            self.stacks.append(blocks)
        self._pass_counter = 0

    # -- forward ------------------------------------------------------------

    def _new_context(self, collect: bool) -> ForwardContext:
        ctx = ForwardContext(seed=self.cfg.seed, pass_index=self._pass_counter, collect=collect)
        self._pass_counter += 1
        return ctx

    def forward_batch(self, windows, collect: bool = False):
        """Run a batch of (N, L) windows stacked into one tape.

        Returns (forecast rows x K, residual rows x L, ctx) where rows are the
        windows' node rows concatenated in order.
        """
        arr = np.asarray(windows, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[None]
        batch, n_nodes, length = arr.shape
        if n_nodes != self.cfg.n_nodes or length != self.cfg.input_len:
            raise ContractError(
                f"window shape {(n_nodes, length)} does not match configured "
                f"({self.cfg.n_nodes}, {self.cfg.input_len})"
            )
        x = Tensor(arr.reshape(batch * n_nodes, length))
        ctx = self._new_context(collect)
        residual = x
        forecast = None
        for stack in self.stacks:
            for block in stack:
                out = block.forward(residual, batch, ctx)
                residual = ad.sub(residual, out.backcast)
                forecast = out.forecast if forecast is None else ad.add(forecast, out.forecast)
        return forecast, residual, ctx

    def forward(self, x) -> Tensor:
        forecast, _, _ = self.forward_batch(x)
        return forecast

    # -- bookkeeping ----------------------------------------------------------

    def parameters(self) -> list[Parameter]:
        return self.registry.all()

    def parameter_count(self) -> int:
        return int(np.sum([p.values.size for p in self.parameters()]))

    def graph_builds_per_window(self) -> int:
        """How many adjacencies one forward pass infers per window."""
        total_blocks = self.cfg.stacks * self.cfg.blocks_per_stack
        n_pathways = 1 if self.wiring.single_pathway else 2
        if self.wiring.disable_graph:
            return 0
        if self.wiring.share_graph_across_blocks:
            return n_pathways
        if self.wiring.share_graph_across_pathways:
            return total_blocks
        return n_pathways * total_blocks

    def all_blocks(self) -> list[Block]:
        return [b for stack in self.stacks for b in stack]

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
    model = build_variant(ModelConfig.from_dict(config["model"]))
    model.registry.load_values(values)
    return model, config.get("run", {})


# -- module-level forms of the three assembly operations ----------------------


def block_forward(block: Block, x, ctx: ForwardContext | None = None) -> BlockOutput:
    x = x if isinstance(x, Tensor) else Tensor(x)
    return block.forward(x, 1, ctx)


def stack_forward(blocks: list[Block], x, ctx: ForwardContext | None = None):
    """Chain blocks on backcast residuals; returns (residual, summed forecast)."""
    if not blocks:
        raise ContractError("stack_forward requires at least one block")
    x = x if isinstance(x, Tensor) else Tensor(x)
    if ctx is None:
        ctx = ForwardContext(seed=blocks[0].cfg.seed)
    residual = x
    forecast = None
    for block in blocks:
        out = block.forward(residual, 1, ctx)
        residual = ad.sub(residual, out.backcast)
        forecast = out.forecast if forecast is None else ad.add(forecast, out.forecast)
    return residual, forecast


def model_forward(model: Model, x) -> Tensor:
    return model.forward(x)
