"""adafuse: multimodal segmentation by stitching frozen transformer
encoders together with cross-modal bottleneck adapters."""

from .tensor import (Tensor, Tape, ShapeError, active_tape, backward, no_grad,
                     add, sub, mul, matmul, attention, gelu, softmax,
                     log_softmax, layer_norm, dropout, drop_path, tsum, tmean,
                     reshape, transpose, concat, texp, tlog, extract_patches,
                     upsample_bilinear)
from .gradcheck import grad_check_params, relative_error
from .encoder import Encoder, EncoderConfig, TransformerBlock, tokens_to_map, map_to_tokens
from .adapters import (DENSITIES, AdapterBank, CrossModalAdapter, build_adapter_bank,
                       fused_block_forward, fused_encode, routes_for)
from .heads import Decoder, FeatureFusion, modal_merge
from .model import FusionModel, ModelConfig
from .budget import (adapter_param_count, analytic_count, budget_report,
                     empirical_count)
from .data import (IGNORE_INDEX, MultimodalSample, SceneDataset, StoreError,
                   batch_iter, generate_synthetic, load_dataset, save_dataset,
                   stack_batch)
from .training import (AdamW, ConfusionMatrix, TrainConfig, TrainingError,
                       cross_entropy, evaluate, fit, format_metrics,
                       load_checkpoint, lr_at, save_checkpoint, train_step)
from .verification import check_density_equivalence

__version__ = "0.1.0"
