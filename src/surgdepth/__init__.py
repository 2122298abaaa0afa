"""surgdepth: toy-scale RGB-D semantic segmentation with a pooled-query
cross-attention fusion block, a ViT encoder over concatenated modality
tokens, and a shallow ConvNeXt decoder, built on a minimal reverse-mode
autodiff tensor core."""

from .fusion import FusionBlock, TokenGrid
from .gradcheck import grad_check
from .losses import cross_entropy_loss
from .metrics import ConfusionAccumulator, MetricsReport, mean_iou
from .model import Model, ModelConfig, build_model, full_vitb_config, param_count
from .optim import AdamW
from .oracles import attention_oracle
from .tensor import Tensor, backward

__version__ = "0.1.0"

__all__ = [
    "AdamW", "ConfusionAccumulator", "FusionBlock", "MetricsReport", "Model",
    "ModelConfig", "Tensor", "TokenGrid", "attention_oracle", "backward",
    "build_model", "cross_entropy_loss", "full_vitb_config", "grad_check",
    "mean_iou", "param_count",
]
