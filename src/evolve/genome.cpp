#include "evolve/genome.hpp"

#include "common/serialize.hpp"

namespace cellgan::evolve {

namespace {
constexpr auto kGenomeFields = [](auto& v, auto& genome) {
  v(genome.generator_params);
  v(genome.discriminator_params);
  v(genome.g_learning_rate);
  v(genome.d_learning_rate);
  v(genome.g_fitness);
  v(genome.d_fitness);
  v(genome.origin_cell);
  v(genome.iteration);
};
}  // namespace

std::size_t CellGenome::byte_size() const { return common::encoded_size(*this, kGenomeFields); }

std::vector<std::uint8_t> CellGenome::serialize() const {
  return common::encode(*this, kGenomeFields);
}

CellGenome CellGenome::deserialize(std::span<const std::uint8_t> bytes) {
  return common::decode<CellGenome>(bytes, kGenomeFields);
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
