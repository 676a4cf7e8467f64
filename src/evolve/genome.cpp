#include "evolve/genome.hpp"

#include "common/serialize.hpp"

namespace cellgan::evolve {

std::size_t CellGenome::byte_size() const {
  return sizeof(float) * (generator_params.size() + discriminator_params.size()) +
         4 * sizeof(double) + 2 * sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t);
}

std::vector<std::uint8_t> CellGenome::serialize() const {
  common::ByteWriter w;
  w.reserve(byte_size());
  w.write_vector(generator_params);
  w.write_vector(discriminator_params);
  w.write(g_learning_rate);
  w.write(d_learning_rate);
  w.write(g_fitness);
  w.write(d_fitness);
  w.write(origin_cell);
  w.write(iteration);
  return w.take();
}

CellGenome CellGenome::deserialize(std::span<const std::uint8_t> bytes) {
  common::ByteReader r(bytes);
  CellGenome g;
  g.generator_params = r.read_vector<float>();
  g.discriminator_params = r.read_vector<float>();
  g.g_learning_rate = r.read<double>();
  g.d_learning_rate = r.read<double>();
  g.g_fitness = r.read<double>();
  g.d_fitness = r.read<double>();
  g.origin_cell = r.read<std::uint32_t>();
  g.iteration = r.read<std::uint32_t>();
  CG_ENSURE(r.exhausted());
  return g;
}

CellGenome CellGenome::capture(nn::Sequential& generator,
                               nn::Sequential& discriminator) {
  CellGenome g;
  g.generator_params = generator.flatten_parameters();
  g.discriminator_params = discriminator.flatten_parameters();
  return g;
}

void CellGenome::install(nn::Sequential& generator,
                         nn::Sequential& discriminator) const {
  generator.load_parameters(generator_params);
  discriminator.load_parameters(discriminator_params);
}

}  // namespace cellgan::evolve
