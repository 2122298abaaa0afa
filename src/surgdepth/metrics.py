"""Segmentation metrics: per-class IoU from accumulated confusion counts."""

from dataclasses import dataclass, field

import numpy as np

from .losses import IGNORE_INDEX


@dataclass
class MetricsReport:
    per_class_iou: list = field(default_factory=list)  # (class_id, iou or None)
    mean_iou: float = 0.0
    pixel_accuracy: float = 0.0

    def to_dict(self):
        return {
            "per_class": [[c, i] for c, i in self.per_class_iou],
            "miou": self.mean_iou,
            "pixel_accuracy": self.pixel_accuracy,
        }


class ConfusionAccumulator:
    """Global confusion counts across a dataset (not per-image averaging)."""

    def __init__(self, num_classes):
        self.num_classes = num_classes
        self.matrix = np.zeros((num_classes, num_classes), dtype=np.int64)

    def add(self, pred, label):
        pred = np.asarray(pred).reshape(-1)
        label = np.asarray(label).reshape(-1)
        keep = label != IGNORE_INDEX
        pred, label = pred[keep], label[keep]
        idx = label * self.num_classes + pred
        self.matrix += np.bincount(idx, minlength=self.num_classes ** 2).reshape(
            self.num_classes, self.num_classes)

    def report(self):
        m = self.matrix
        inter = np.diag(m).astype(np.float64)
        union = m.sum(axis=0) + m.sum(axis=1) - np.diag(m)
        per_class = []
        defined = []
        for c in range(self.num_classes):
            if union[c] == 0:  # class absent from both pred and label
                per_class.append((c, None))
            else:
                iou = inter[c] / union[c]
                per_class.append((c, float(iou)))
                defined.append(iou)
        total = m.sum()
        return MetricsReport(
            per_class_iou=per_class,
            mean_iou=float(np.mean(defined)) if defined else 0.0,
            pixel_accuracy=float(inter.sum() / total) if total else 0.0,
        )


def mean_iou(pred, label, num_classes):
    acc = ConfusionAccumulator(num_classes)
    acc.add(pred, label)
    return acc.report()
