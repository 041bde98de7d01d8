"""Reusable layer constructors shared by the model zoo.

Each helper builds a :class:`~repro.models.base.LayerSpec` with realistic
forward/backward kernel sequences and parameter tensors for one common layer
type.  Model files compose these into full networks.
"""

from repro.kernels import library as K
from repro.models.base import LayerSpec, ParamTensor


def conv_layer(
    name: str,
    batch: int,
    c_in: int,
    h: int,
    w: int,
    c_out: int,
    kernel: int,
    stride: int = 1,
    padding: int = 0,
    bias: bool = False,
) -> LayerSpec:
    """2-D convolution: one cuDNN kernel forward, dgrad + wgrad backward."""
    fwd = [K.conv2d_forward(batch, c_in, h, w, c_out, kernel, stride, padding)]
    bwd = [
        K.conv2d_backward_data(batch, c_in, h, w, c_out, kernel, stride, padding),
        K.conv2d_backward_filter(batch, c_in, h, w, c_out, kernel, stride, padding),
    ]
    params = [ParamTensor(f"{name}.weight", c_out * c_in * kernel * kernel)]
    oh, ow = _out_hw(h, w, kernel, stride, padding)
    if bias:
        params.append(ParamTensor(f"{name}.bias", c_out))
        fwd.append(K.add_tensor(batch * c_out * oh * ow))
        bwd.append(K.reduction(batch * c_out * oh * ow, tag="bias_grad"))
    return LayerSpec(name=name, kind="conv", forward_kernels=fwd,
                     backward_kernels=bwd, params=params)


def batchnorm_layer(name: str, batch: int, channels: int, h: int, w: int) -> LayerSpec:
    """2-D batch normalization."""
    numel = batch * channels * h * w
    return LayerSpec(
        name=name,
        kind="batchnorm",
        forward_kernels=[K.batchnorm_forward(numel)],
        backward_kernels=[K.batchnorm_backward(numel)],
        params=[
            ParamTensor(f"{name}.weight", channels),
            ParamTensor(f"{name}.bias", channels),
        ],
    )


def relu_layer(name: str, numel: int) -> LayerSpec:
    """In-place ReLU activation."""
    return LayerSpec(
        name=name,
        kind="relu",
        forward_kernels=[K.relu_forward(numel)],
        backward_kernels=[K.relu_backward(numel)],
    )


def add_layer(name: str, numel: int) -> LayerSpec:
    """Residual addition (no parameters)."""
    return LayerSpec(
        name=name,
        kind="add",
        forward_kernels=[K.add_tensor(numel)],
        backward_kernels=[K.add_tensor(numel)],
    )


def pool_layer(name: str, numel_out: int, window: int = 4) -> LayerSpec:
    """Max/avg pooling."""
    return LayerSpec(
        name=name,
        kind="pool",
        forward_kernels=[K.pooling_forward(numel_out, window)],
        backward_kernels=[K.pooling_backward(numel_out, window)],
    )


def linear_layer(
    name: str,
    batch_rows: int,
    in_features: int,
    out_features: int,
    bias: bool = True,
) -> LayerSpec:
    """Fully-connected layer: sgemm forward, dgrad + wgrad sgemms backward."""
    fwd = [K.sgemm(batch_rows, out_features, in_features, tag="nn")]
    bwd = [
        K.sgemm(batch_rows, in_features, out_features, tag="nt"),  # dX
        K.sgemm(in_features, out_features, batch_rows, tag="tn"),  # dW
    ]
    params = [ParamTensor(f"{name}.weight", in_features * out_features)]
    if bias:
        params.append(ParamTensor(f"{name}.bias", out_features))
        fwd.append(K.add_tensor(batch_rows * out_features))
        bwd.append(K.reduction(batch_rows * out_features, tag="bias_grad"))
    return LayerSpec(name=name, kind="linear", forward_kernels=fwd,
                     backward_kernels=bwd, params=params)


def dropout_layer(name: str, numel: int) -> LayerSpec:
    """Fused dropout layer."""
    return LayerSpec(
        name=name,
        kind="dropout",
        forward_kernels=[K.dropout(numel)],
        backward_kernels=[K.dropout(numel)],
    )


def loss_layer(name: str, batch_rows: int, classes: int) -> LayerSpec:
    """Softmax cross-entropy loss head."""
    numel = batch_rows * classes
    return LayerSpec(
        name=name,
        kind="loss",
        forward_kernels=[K.softmax_forward(numel), K.reduction(batch_rows, tag="loss")],
        backward_kernels=[K.softmax_backward(numel)],
    )


def _out_hw(h: int, w: int, kernel: int, stride: int, padding: int):
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    return oh, ow
