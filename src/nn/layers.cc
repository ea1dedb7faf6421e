#include "nn/layers.h"

#include <cassert>
#include <cmath>

#include "nn/activations.h"
#include "tensor/conv_direct.h"
#include "tensor/gemm.h"

namespace mlperf {
namespace nn {

using tensor::Shape;
using tensor::Tensor;

namespace {

/** Conv weights packed as the A operand of the im2col GEMM, with
 *  bias + ReLU fused into the kernel epilogue. */
class PreparedConv2d final : public PreparedKernel
{
  public:
    PreparedConv2d(const Tensor &weight, const std::vector<float> &bias,
                   const tensor::Conv2dParams &params, bool relu)
        : weights_(tensor::packMatrixA(
              weight.data(), weight.shape().dim(0),
              weight.numel() / weight.shape().dim(0))),
          raw_(weight), bias_(bias), params_(params), relu_(relu)
    {
    }

    void
    run(const float *input, const Shape &in_shape, float *out,
        float *scratch) const override
    {
        const int64_t out_hw = params_.outH(in_shape.dim(2)) *
                               params_.outW(in_shape.dim(3));
        // Mirror the eager kernel's small-shape dispatch so compiled
        // results stay bit-identical to Layer::forward at every shape;
        // there is no pack step to skip below the threshold anyway.
        if (tensor::gemmUsesSmallPath(weights_.rows(), out_hw,
                                      weights_.cols())) {
            tensor::conv2dInto(input, in_shape.dim(0), in_shape.dim(1),
                               in_shape.dim(2), in_shape.dim(3), raw_,
                               bias_.empty() ? nullptr : bias_.data(),
                               params_, relu_, out);
            return;
        }
        tensor::conv2dPrepackedInto(
            input, in_shape.dim(0), in_shape.dim(1), in_shape.dim(2),
            in_shape.dim(3), weights_,
            bias_.empty() ? nullptr : bias_.data(), params_, relu_,
            out, scratch);
    }

    int64_t
    scratchFloats(const Shape &in_shape) const override
    {
        const int64_t out_hw = params_.outH(in_shape.dim(2)) *
                               params_.outW(in_shape.dim(3));
        // The small-shape path runs the eager kernel out of the thread
        // arena; above the threshold the im2col patch matrix (one
        // slice per image, workers write disjoint slices) comes from
        // the plan arena so its footprint is planner-visible.
        if (tensor::gemmUsesSmallPath(weights_.rows(), out_hw,
                                      weights_.cols()))
            return 0;
        return in_shape.dim(0) * weights_.cols() * out_hw;
    }

    int64_t constantBytes() const override { return weights_.bytes(); }

  private:
    tensor::PackedMatrix weights_;
    const Tensor &raw_;               //!< owned by the layer
    const std::vector<float> &bias_;  //!< owned by the layer
    tensor::Conv2dParams params_;
    bool relu_;
};

/** Conv weights blocked for the direct NCHWc kernel: no im2col, no
 *  scratch, bias/ReLU fused while the output tile is register-hot. */
class PreparedConv2dDirect final : public PreparedKernel
{
  public:
    PreparedConv2dDirect(const Tensor &weight,
                         const std::vector<float> &bias,
                         const tensor::Conv2dParams &params, bool relu)
        : weights_(tensor::packConvNchwc(
              weight, bias.empty() ? nullptr : bias.data(),
              static_cast<int64_t>(bias.size()))),
          params_(params), relu_(relu)
    {
    }

    void
    run(const float *input, const Shape &in_shape, float *out,
        float *scratch) const override
    {
        (void)scratch;  // the point of the direct kernel
        tensor::convDirectNchwc(input, in_shape.dim(0), in_shape.dim(1),
                                in_shape.dim(2), in_shape.dim(3),
                                weights_, params_, relu_, out);
    }

    int64_t constantBytes() const override { return weights_.bytes(); }

  private:
    tensor::PackedConvNchwc weights_;
    tensor::Conv2dParams params_;
    bool relu_;
};

/** Dense weights packed (transpose absorbed) as the B operand, with
 *  bias + ReLU fused into the kernel epilogue. gemmPrepacked matches
 *  denseForward + ReLU bit for bit at every shape, so compiled results
 *  equal Layer::forward without a dispatch here. */
class PreparedDense final : public PreparedKernel
{
  public:
    PreparedDense(const Tensor &weight, const std::vector<float> &bias,
                  bool relu)
        : weights_(tensor::packMatrixB(
              weight.data(), weight.shape().dim(1),
              weight.shape().dim(0), /*b_trans=*/true)),
          bias_(bias), relu_(relu)
    {
    }

    void
    run(const float *input, const Shape &in_shape, float *out,
        float *scratch) const override
    {
        (void)scratch;  // GEMM packs into the thread arena
        const int64_t batch = in_shape.dim(0);
        const int64_t in = in_shape.dim(1);
        const int64_t features = weights_.cols();
        tensor::GemmEpilogue epilogue;
        epilogue.bias = bias_.empty() ? nullptr : bias_.data();
        epilogue.biasPerRow = false;  // C columns are output features
        epilogue.relu = relu_;
        tensor::gemmPrepacked(input, weights_, out, batch, features, in,
                              epilogue);
    }

    int64_t constantBytes() const override { return weights_.bytes(); }

  private:
    tensor::PackedMatrix weights_;
    const std::vector<float> &bias_;  //!< owned by the layer
    bool relu_;
};

} // namespace

// ---------------------------------------------------------------- Conv2d

Conv2dLayer::Conv2dLayer(Tensor weight, std::vector<float> bias,
                         tensor::Conv2dParams params, bool fuse_relu)
    : weight_(std::move(weight)), bias_(std::move(bias)),
      params_(params), fuseRelu_(fuse_relu)
{
    assert(weight_.shape().rank() == 4);
    assert(bias_.empty() ||
           static_cast<int64_t>(bias_.size()) == weight_.shape().dim(0));
}

Tensor
Conv2dLayer::forward(const Tensor &input) const
{
    Tensor out(outputShape(input.shape()));
    forwardInto(input.data(), input.shape(), out.data());
    return out;
}

void
Conv2dLayer::forwardInto(const float *input, const Shape &in_shape,
                         float *out) const
{
    assert(in_shape.rank() == 4);
    tensor::conv2dInto(input, in_shape.dim(0), in_shape.dim(1),
                       in_shape.dim(2), in_shape.dim(3), weight_,
                       bias_.empty() ? nullptr : bias_.data(), params_,
                       fuseRelu_, out);
}

Shape
Conv2dLayer::outputShape(const Shape &input) const
{
    return Shape{input.dim(0), weight_.shape().dim(0),
                 params_.outH(input.dim(2)), params_.outW(input.dim(3))};
}

uint64_t
Conv2dLayer::paramCount() const
{
    return static_cast<uint64_t>(weight_.numel()) + bias_.size();
}

std::unique_ptr<PreparedKernel>
Conv2dLayer::prepare(bool post_relu) const
{
    return std::make_unique<PreparedConv2d>(weight_, bias_, params_,
                                            fuseRelu_ || post_relu);
}

std::unique_ptr<PreparedKernel>
Conv2dLayer::prepareDirect(bool post_relu) const
{
    return std::make_unique<PreparedConv2dDirect>(
        weight_, bias_, params_, fuseRelu_ || post_relu);
}

uint64_t
Conv2dLayer::flops(const Shape &input) const
{
    const Shape out = outputShape(input);
    const uint64_t macs_per_pixel = static_cast<uint64_t>(
        weight_.shape().dim(1) * params_.kernelH * params_.kernelW);
    return 2 * macs_per_pixel *
           static_cast<uint64_t>(out.dim(1) * out.dim(2) * out.dim(3));
}

// ------------------------------------------------------- DepthwiseConv2d

DepthwiseConv2dLayer::DepthwiseConv2dLayer(Tensor weight,
                                           std::vector<float> bias,
                                           tensor::Conv2dParams params,
                                           bool fuse_relu)
    : weight_(std::move(weight)), bias_(std::move(bias)),
      params_(params), fuseRelu_(fuse_relu)
{
    assert(weight_.shape().rank() == 4);
    assert(weight_.shape().dim(1) == 1);
}

Tensor
DepthwiseConv2dLayer::forward(const Tensor &input) const
{
    Tensor out(outputShape(input.shape()));
    forwardInto(input.data(), input.shape(), out.data());
    return out;
}

void
DepthwiseConv2dLayer::forwardInto(const float *input,
                                  const Shape &in_shape,
                                  float *out) const
{
    assert(in_shape.rank() == 4);
    tensor::depthwiseConv2dInto(
        input, in_shape.dim(0), in_shape.dim(1), in_shape.dim(2),
        in_shape.dim(3), weight_,
        bias_.empty() ? nullptr : bias_.data(), params_, fuseRelu_,
        out);
}

Shape
DepthwiseConv2dLayer::outputShape(const Shape &input) const
{
    return Shape{input.dim(0), input.dim(1),
                 params_.outH(input.dim(2)), params_.outW(input.dim(3))};
}

uint64_t
DepthwiseConv2dLayer::paramCount() const
{
    return static_cast<uint64_t>(weight_.numel()) + bias_.size();
}

uint64_t
DepthwiseConv2dLayer::flops(const Shape &input) const
{
    const Shape out = outputShape(input);
    return 2 * static_cast<uint64_t>(params_.kernelH * params_.kernelW) *
           static_cast<uint64_t>(out.dim(1) * out.dim(2) * out.dim(3));
}

// ----------------------------------------------------------------- Dense

DenseLayer::DenseLayer(Tensor weight, std::vector<float> bias,
                       bool fuse_relu)
    : weight_(std::move(weight)), bias_(std::move(bias)),
      fuseRelu_(fuse_relu)
{
    assert(weight_.shape().rank() == 2);
    assert(bias_.empty() ||
           static_cast<int64_t>(bias_.size()) == weight_.shape().dim(0));
}

Tensor
DenseLayer::forward(const Tensor &input) const
{
    assert(input.shape().rank() == 2);
    Tensor y(outputShape(input.shape()));
    forwardInto(input.data(), input.shape(), y.data());
    return y;
}

void
DenseLayer::forwardInto(const float *input, const Shape &in_shape,
                        float *out) const
{
    assert(in_shape.rank() == 2);
    const int64_t batch = in_shape.dim(0);
    const int64_t in = in_shape.dim(1);
    const int64_t out_dim = weight_.shape().dim(0);
    assert(weight_.shape().dim(1) == in);
    tensor::denseForward(weight_.data(),
                         bias_.empty() ? nullptr : bias_.data(), input,
                         out, batch, in, out_dim);
    if (fuseRelu_) {
        const int64_t n = batch * out_dim;
        for (int64_t i = 0; i < n; ++i) {
            if (out[i] < 0.0f)
                out[i] = 0.0f;
        }
    }
}

Shape
DenseLayer::outputShape(const Shape &input) const
{
    return Shape{input.dim(0), weight_.shape().dim(0)};
}

uint64_t
DenseLayer::paramCount() const
{
    return static_cast<uint64_t>(weight_.numel()) + bias_.size();
}

std::unique_ptr<PreparedKernel>
DenseLayer::prepare(bool post_relu) const
{
    return std::make_unique<PreparedDense>(weight_, bias_,
                                           fuseRelu_ || post_relu);
}

uint64_t
DenseLayer::flops(const Shape &input) const
{
    (void)input;
    return 2 * static_cast<uint64_t>(weight_.numel());
}

// --------------------------------------------------------------- Pooling

Tensor
MaxPoolLayer::forward(const Tensor &input) const
{
    return tensor::maxPool2d(input, kernel_, stride_);
}

void
MaxPoolLayer::forwardInto(const float *input, const Shape &in_shape,
                          float *out) const
{
    assert(in_shape.rank() == 4);
    tensor::maxPool2dInto(input, in_shape.dim(0), in_shape.dim(1),
                          in_shape.dim(2), in_shape.dim(3), kernel_,
                          stride_, out);
}

Shape
MaxPoolLayer::outputShape(const Shape &input) const
{
    return Shape{input.dim(0), input.dim(1),
                 (input.dim(2) - kernel_) / stride_ + 1,
                 (input.dim(3) - kernel_) / stride_ + 1};
}

Tensor
AvgPoolLayer::forward(const Tensor &input) const
{
    return tensor::avgPool2d(input, kernel_, stride_);
}

void
AvgPoolLayer::forwardInto(const float *input, const Shape &in_shape,
                          float *out) const
{
    assert(in_shape.rank() == 4);
    tensor::avgPool2dInto(input, in_shape.dim(0), in_shape.dim(1),
                          in_shape.dim(2), in_shape.dim(3), kernel_,
                          stride_, out);
}

Shape
AvgPoolLayer::outputShape(const Shape &input) const
{
    return Shape{input.dim(0), input.dim(1),
                 (input.dim(2) - kernel_) / stride_ + 1,
                 (input.dim(3) - kernel_) / stride_ + 1};
}

Tensor
GlobalAvgPoolLayer::forward(const Tensor &input) const
{
    return tensor::globalAvgPool(input);
}

void
GlobalAvgPoolLayer::forwardInto(const float *input,
                                const Shape &in_shape,
                                float *out) const
{
    assert(in_shape.rank() == 4);
    tensor::globalAvgPoolInto(input, in_shape.dim(0), in_shape.dim(1),
                              in_shape.dim(2), in_shape.dim(3), out);
}

Shape
GlobalAvgPoolLayer::outputShape(const Shape &input) const
{
    return Shape{input.dim(0), input.dim(1)};
}

Tensor
FlattenLayer::forward(const Tensor &input) const
{
    return input.reshaped(outputShape(input.shape()));
}

void
FlattenLayer::forwardInto(const float *input, const Shape &in_shape,
                          float *out) const
{
    std::copy(input, input + in_shape.numel(), out);
}

Shape
FlattenLayer::outputShape(const Shape &input) const
{
    int64_t rest = 1;
    for (int64_t i = 1; i < input.rank(); ++i)
        rest *= input.dim(i);
    return Shape{input.dim(0), rest};
}

// ------------------------------------------------------- Relu / BN

Tensor
ReluLayer::forward(const Tensor &input) const
{
    Tensor out = input;
    reluInplace(out);
    return out;
}

void
ReluLayer::forwardInto(const float *input, const Shape &in_shape,
                       float *out) const
{
    const int64_t n = in_shape.numel();
    for (int64_t i = 0; i < n; ++i)
        out[i] = input[i] < 0.0f ? 0.0f : input[i];
}

BatchNormLayer::BatchNormLayer(std::vector<float> gamma,
                               std::vector<float> beta,
                               std::vector<float> mean,
                               std::vector<float> var, float eps)
{
    assert(gamma.size() == beta.size() &&
           gamma.size() == mean.size() && gamma.size() == var.size());
    scale_.resize(gamma.size());
    shift_.resize(gamma.size());
    for (size_t c = 0; c < gamma.size(); ++c) {
        const float inv_std =
            1.0f / std::sqrt(var[c] + eps);
        scale_[c] = gamma[c] * inv_std;
        shift_[c] = beta[c] - mean[c] * scale_[c];
    }
}

Tensor
BatchNormLayer::forward(const Tensor &input) const
{
    Tensor out(input.shape());
    forwardInto(input.data(), input.shape(), out.data());
    return out;
}

void
BatchNormLayer::forwardInto(const float *input, const Shape &in_shape,
                            float *out) const
{
    assert(in_shape.rank() >= 2);
    const int64_t n = in_shape.dim(0);
    const int64_t c = in_shape.dim(1);
    assert(c == channels());
    const int64_t inner = in_shape.numel() / (n * c);
    for (int64_t nc = 0; nc < n * c; ++nc) {
        const int64_t ci = nc % c;
        const float s = scale_[static_cast<size_t>(ci)];
        const float b = shift_[static_cast<size_t>(ci)];
        const float *src = input + nc * inner;
        float *dst = out + nc * inner;
        for (int64_t i = 0; i < inner; ++i)
            dst[i] = s * src[i] + b;
    }
}

// -------------------------------------------------------- ResidualBlock

ResidualBlock::ResidualBlock(std::unique_ptr<Conv2dLayer> conv1,
                             std::unique_ptr<Conv2dLayer> conv2,
                             std::unique_ptr<Conv2dLayer> projection)
    : conv1_(std::move(conv1)), conv2_(std::move(conv2)),
      projection_(std::move(projection))
{
}

Tensor
ResidualBlock::forward(const Tensor &input) const
{
    Tensor main = conv2_->forward(conv1_->forward(input));
    const Tensor skip =
        projection_ ? projection_->forward(input) : input;
    assert(main.shape() == skip.shape());
    float *p = main.data();
    const float *s = skip.data();
    const int64_t n = main.numel();
    for (int64_t i = 0; i < n; ++i) {
        p[i] += s[i];
        if (p[i] < 0.0f)
            p[i] = 0.0f;  // post-add ReLU
    }
    return main;
}

Shape
ResidualBlock::outputShape(const Shape &input) const
{
    return conv2_->outputShape(conv1_->outputShape(input));
}

uint64_t
ResidualBlock::paramCount() const
{
    uint64_t n = conv1_->paramCount() + conv2_->paramCount();
    if (projection_)
        n += projection_->paramCount();
    return n;
}

uint64_t
ResidualBlock::flops(const Shape &input) const
{
    uint64_t n = conv1_->flops(input) +
                 conv2_->flops(conv1_->outputShape(input));
    if (projection_)
        n += projection_->flops(input);
    return n;
}

int
ResidualBlock::lower(ModelGraph &graph, int input) const
{
    GraphNode c1;
    c1.kind = OpKind::Conv2d;
    c1.layer = conv1_.get();
    c1.inputs = {input};
    c1.label = "residual/conv1";
    const int c1_id = graph.addNode(std::move(c1));

    GraphNode c2;
    c2.kind = OpKind::Conv2d;
    c2.layer = conv2_.get();
    c2.inputs = {c1_id};
    c2.label = "residual/conv2";
    const int c2_id = graph.addNode(std::move(c2));

    int skip = input;
    if (projection_) {
        GraphNode proj;
        proj.kind = OpKind::Conv2d;
        proj.layer = projection_.get();
        proj.inputs = {input};
        proj.label = "residual/proj";
        skip = graph.addNode(std::move(proj));
    }

    GraphNode add;
    add.kind = OpKind::Add;
    add.inputs = {c2_id, skip};
    add.postRelu = true;  // the block's post-add ReLU
    add.label = "residual/add";
    return graph.addNode(std::move(add));
}

} // namespace nn
} // namespace mlperf
