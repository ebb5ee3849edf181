"""Semi-supervised classification of embedding vectors over similarity graphs."""

from .baseline import LogRegModel, predict_logreg, train_logreg
from .checkpoint import load_checkpoint, save_checkpoint
from .dataset import (
    EmbeddingDataset,
    LabeledSplit,
    LabelMatrix,
    build_label_matrix,
    load_dataset,
    make_split,
    save_dataset,
    synth_blobs,
)
from .gcn import (
    ForwardCache,
    GcnModel,
    Gradients,
    Hyperparams,
    backward,
    forward,
    init_model,
    loss,
    predict,
    relu,
    softmax,
    train,
)
from .graph import (
    GraphBuildConfig,
    PropagationMatrix,
    SparseAdjacency,
    build_graph,
    epsilon_graph,
    full_graph,
    knn_graph,
    load_graph,
    normalize,
    save_graph,
)
from .harness import (
    ConfusionCounts,
    EvalReport,
    ExperimentConfig,
    accuracy,
    confusion_counts,
    render_report,
    run_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
