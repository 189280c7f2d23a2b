"""Conditional feature-map codec with decoder-side side information.

Senders prune, vector-quantize and entropy-code dense feature maps into
compact self-describing messages; receivers reconstruct them conditionally
using their own correlated local features. A seeded simulator and plug-in
information estimators make the rate and distortion behavior checkable.
"""

from .codec import (
    CodecParams,
    DecoderFit,
    decode_message,
    encode_message,
    finetune_step,
    fit_conditional_decoder,
    fit_encoder_projection,
    load_codec_params,
    save_codec_params,
    si_context,
)
from .errors import (
    CodebookMismatchError,
    CodecError,
    ConfigError,
    DecodeError,
    FormatError,
    FrequencyTableError,
    HeaderMismatchError,
    InsufficientDataError,
    MessageParseError,
    ShapeMismatchError,
    StepRejectedError,
    SymbolOutOfRangeError,
    UndefinedCorrelationError,
)
from .features import (
    FeatureMap,
    Mask,
    apply_mask,
    elementwise_max,
    load_feature_map,
    mse,
    raw_payload_bytes,
    save_feature_map,
)
from .infotheory import conditional_entropy, empirical_entropy, mutual_information
from .pipeline import (
    FittedCodec,
    LinkResult,
    SweepRow,
    evaluate_point,
    fit_codec,
    fuse_all,
    rd_sweep,
    robustness_sweep,
    run_link,
    write_csv,
)
from .pruning import ScoreMap, mask_from_scores, occupancy, score_map
from .quantizer import (
    Codebook,
    dequantize,
    kmeans_fit,
    load_codebook,
    quantize_map,
    save_codebook,
    train_codebook,
)
from .rans import FrequencyTable, build_freq_table, rans_decode, rans_encode
from .simulate import (
    ScenarioConfig,
    Scene,
    empirical_correlation,
    generate_frames,
    generate_scene,
    load_scenario,
    observe,
    perturb_pose,
    save_scenario,
    translate,
)
from .wire import Message

__version__ = "0.1.0"
