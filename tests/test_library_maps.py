"""The feature maps the package builds for itself: their bits and their storage.

apply_mask, elementwise_max, fuse_all, reconstruct, decode_message,
translate and FeatureMap.zeros freeze the array they have just allocated instead of
copying and rescanning it, while FeatureMap(values) copies and checks
outside input. These tests pin the bits of every such map on a real small
link and check that each one is read-only, C-order float32 and owns its
memory.
"""

import hashlib

import numpy as np
import pytest

from dsc_codec import (
    FeatureMap,
    Mask,
    apply_mask,
    decode_latents,
    decode_message,
    elementwise_max,
    encode_message,
    fuse_all,
    reconstruct,
    si_context,
)
from dsc_codec.pruning import mask_from_scores, score_map
from dsc_codec.simulate import generate_scene, observe, translate


def _sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _link(cfg, fitted, tau):
    """Scene 0, sender 1 -> receiver 0, pruned at tau."""
    scene = generate_scene(cfg, 0)
    sender, local = observe(scene, 1, cfg), observe(scene, 0, cfg)
    scores = score_map(sender)
    mask = mask_from_scores(scores, tau)
    pruned = apply_mask(sender, mask)
    msg = encode_message(pruned, mask, fitted.params, fitted.codebook)
    return local, scores, mask, pruned, msg


# sha256 of each output's bytes on the small_fitted codec. tau=0 codes every
# cell, 0.5 most of them (whole-map context sums), 0.8 a few (row gathers).
_PINNED_SCORE_MAP = "fad1198b61f695c25dac8ea757f54bbf54149937b9f16695ed7ffd9b27215361"
_PINNED = {
    0.0: {
        "apply_mask": "b160104c4c6f1ca13ce7cc26a9025ae041216c9f7fc5bdd8e2f8aa816f9f424b",
        "message": "99bf0373121f2cde10b97ef782e12b5f725f0ead40c73bd9ff21ff8645c7e12c",
        "conditional": "418689b17a70f127f61a50521b4ed1673933715aa4ef70c5abb8a72fa8e50f0e",
        "unconditional": "ba9eca31120c2061266b728c9ac95d901c2d37cd006542b41b7752d7bb064517",
        "fuse_all": "b921cc5f2cf4e2b8ccfc25926f7425cc11ebb023e82580c0fd7b337efe104329",
    },
    0.5: {
        "apply_mask": "04c55b3990b26fc799492c56db39d75a0147474a57059755e1a8b86cd3768263",
        "message": "40e64097958ed2a0e5b418aa14ed55b27aa866f39a882c6e2848521ef612a8c4",
        "conditional": "f3f39ec4ae5498152b9b3132660f57cf5ab762b10858e243ff645586f876b872",
        "unconditional": "da35714b93d873b50339abe40c1c0d1c04f4b620ec3c33e8a8127fe3979dad34",
        "fuse_all": "ba146acb13f44ea24abdb6b6bc35bea40a16ecbf8469bd13375157e2aec092a0",
    },
    0.8: {
        "apply_mask": "2e338d63ad45ae891eecb3c7e3e552294d091fcfcc1505f56a4968c9aca45c4d",
        "message": "e69040c52f7d97ee76ffe67e98e284f79257d5b9e49214394850e2340423acbd",
        "conditional": "49eef4c13575decba7563a6a4fa4c37ef0ae434c3babf9038f531ec2e2311713",
        "unconditional": "f87268fb27c5ac6c942ea0dc9f034b3cb1944a6544284f34859720bfc25e9224",
        "fuse_all": "9c210dce89d31089d4cfcb2b9cba18d02ce3a01af63db435c99bd2998908fb6d",
    },
}


@pytest.mark.parametrize("tau", sorted(_PINNED))
def test_link_outputs_keep_their_pinned_bits(small_cfg, small_fitted, tau):
    params, cb = small_fitted.params, small_fitted.codebook
    local, scores, _, pruned, msg = _link(small_cfg, small_fitted, tau)
    cond = decode_message(msg, params, cb, f_local=local)
    uncond = decode_message(msg, params, cb)
    assert _sha256(scores.values) == _PINNED_SCORE_MAP
    got = {
        "apply_mask": _sha256(pruned.values),
        "message": hashlib.sha256(msg.to_bytes()).hexdigest(),
        "conditional": _sha256(cond.values),
        "unconditional": _sha256(uncond.values),
        "fuse_all": _sha256(fuse_all(local, [cond, uncond]).values),
    }
    assert got == _PINNED[tau]


def _assert_built_in_place(f: FeatureMap, *inputs: np.ndarray) -> None:
    values = f.values
    assert values.dtype == np.float32
    assert values.ndim == 3
    assert values.flags.c_contiguous
    assert not values.flags.writeable
    for arr in inputs:
        assert not np.shares_memory(values, arr)


def test_feature_map_constructor_still_copies_outside_input():
    arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    f = FeatureMap(arr)
    assert not np.shares_memory(f.values, arr)
    assert arr.flags.writeable
    arr[0, 0, 0] = 99.0
    assert f.values[0, 0, 0] == 0.0
    _assert_built_in_place(FeatureMap.zeros(2, 3, 4))


@pytest.mark.parametrize("tau", [0.0, 0.8])
def test_library_maps_are_frozen_float32_and_own_their_memory(small_cfg, small_fitted, tau):
    params, cb = small_fitted.params, small_fitted.codebook
    local, _, mask, pruned, msg = _link(small_cfg, small_fitted, tau)
    sender = observe(generate_scene(small_cfg, 0), 1, small_cfg)
    _assert_built_in_place(apply_mask(sender, mask), sender.values, mask.bits)
    _assert_built_in_place(apply_mask(sender, Mask.ones(*mask.bits.shape)), sender.values)
    for dh, dw in ((0, 0), (3, -2), (100, 0)):
        _assert_built_in_place(translate(sender, dh, dw), sender.values)

    latents = decode_latents(msg, params, cb)
    context = si_context(local, params, mask)
    cond = reconstruct(msg, latents, params, context)
    uncond = reconstruct(msg, latents, params)
    weights = (params.w_cond, params.w_uncond)
    _assert_built_in_place(cond, latents, context, msg.mask.bits, *weights)
    _assert_built_in_place(uncond, latents, msg.mask.bits, *weights)
    _assert_built_in_place(decode_message(msg, params, cb, f_local=local), local.values)
    _assert_built_in_place(decode_message(msg, params, cb), local.values)

    _assert_built_in_place(elementwise_max(local, cond), local.values, cond.values)
    fused = fuse_all(local, [cond, uncond, pruned])
    _assert_built_in_place(fused, local.values, cond.values, uncond.values, pruned.values)


def test_zero_symbol_reconstruction_is_built_in_place(small_cfg, small_fitted):
    params, cb = small_fitted.params, small_fitted.codebook
    shape = (small_cfg.channels, small_cfg.height, small_cfg.width)
    empty = Mask.zeros(*shape[1:])
    msg = encode_message(FeatureMap.zeros(*shape), empty, params, cb)
    latents = decode_latents(msg, params, cb)
    recon = reconstruct(msg, latents, params)
    _assert_built_in_place(recon, latents)
    assert not recon.values.any()
