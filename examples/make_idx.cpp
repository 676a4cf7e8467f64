// make_idx: emit an MNIST-shaped IDX file quartet (train + t10k images and
// labels) so every IDX consumer — `cellgan_run --dataset idx:DIR`, which
// trains from the mapped training files, and the ledger — can run in
// environments where the real MNIST download is unavailable. Pixels come from the
// synthetic MNIST stand-in generator, quantized to bytes exactly the way
// data::load_idx_pair de-quantizes them, so a round trip through these files
// is bit-identical to an in-memory synthetic dataset.
//
//   ./make_idx --out DIR [--train 2000] [--test 400] [--seed 5]
#include <cstdio>
#include <filesystem>
#include <vector>

#include "common/cli.hpp"
#include "data/dataset.hpp"
#include "data/idx.hpp"
#include "data/synthetic_mnist.hpp"

namespace {

using namespace cellgan;

bool write_split(const std::string& dir, const char* images_name,
                 const char* labels_name, std::size_t n, std::uint64_t seed) {
  const data::Dataset set = data::make_synthetic_mnist(n, seed);
  data::IdxImages images;
  images.count = static_cast<std::uint32_t>(n);
  images.rows = data::kImageSide;
  images.cols = data::kImageSide;
  images.pixels.resize(n * data::kImageDim);
  const auto floats = set.images.data();
  for (std::size_t i = 0; i < floats.size(); ++i) {
    // Inverse of the loader's (byte / 127.5 - 1): clamp then round-to-nearest
    // keeps the float -> byte -> float round trip exact for generated values.
    const float v = (floats[i] + 1.0f) * 127.5f;
    images.pixels[i] = static_cast<std::uint8_t>(
        v < 0.0f ? 0.0f : (v > 255.0f ? 255.0f : v));
  }
  std::vector<std::uint8_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<std::uint8_t>(set.labels[i]);
  }
  const std::string images_path = dir + "/" + images_name;
  const std::string labels_path = dir + "/" + labels_name;
  if (!data::write_idx_images(images_path, images) ||
      !data::write_idx_labels(labels_path, labels)) {
    std::fprintf(stderr, "make_idx: cannot write %s\n", images_path.c_str());
    return false;
  }
  std::printf("wrote %s (%zu images) + %s\n", images_path.c_str(), n,
              labels_path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliParser cli(
      "make_idx: generate an MNIST-shaped IDX quartet from the synthetic "
      "stand-in (for containers without the real MNIST files)");
  cli.add_flag("out", "idx_data", "output directory for the four IDX files");
  cli.add_flag("train", "2000", "training split size");
  cli.add_flag("test", "400", "test split size");
  cli.add_flag("seed", "5", "generator seed (test split uses seed+1)");
  if (!cli.parse(argc, argv)) return 1;

  const std::string dir = cli.get("out");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "make_idx: cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  if (!write_split(dir, "train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                   static_cast<std::size_t>(cli.get_int("train")), seed) ||
      !write_split(dir, "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte",
                   static_cast<std::size_t>(cli.get_int("test")), seed + 1)) {
    return 1;
  }
  return 0;
}
