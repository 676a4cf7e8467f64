#include "core/observer.hpp"

#include <algorithm>
#include <utility>

#include "common/serialize.hpp"
#include "evolve/exchange.hpp"

namespace cellgan::core {

// --- records ----------------------------------------------------------------

namespace {
constexpr auto kCellRecordFields = [](auto& v, auto& rec) {
  v(rec.cell);
  v(rec.epoch);
  v(rec.g_fitness);
  v(rec.d_fitness);
  v(rec.g_learning_rate);
  v(rec.d_learning_rate);
  v(rec.loss_kind);
  v(rec.virtual_s);
  v(rec.train_flops);
  v(rec.genome);
  v(rec.mixture_weights);
  v(rec.exchange_policy);
  v(rec.exchange_partner);
  v(rec.exchange_g_adopted);
  v(rec.exchange_d_adopted);
  v(rec.exchange_g_before);
  v(rec.exchange_g_after);
  v(rec.exchange_d_before);
  v(rec.exchange_d_after);
  v(rec.exchange_wins);
  v(rec.exchange_bytes);
};

constexpr auto kEpochRecordFields = [](auto& v, auto& record) {
  v(record.epoch);
  v.blob(record.cells);
};
}  // namespace

std::vector<std::uint8_t> CellEpochRecord::serialize() const {
  return common::encode(*this, kCellRecordFields);
}

CellEpochRecord CellEpochRecord::deserialize(std::span<const std::uint8_t> bytes) {
  return common::decode<CellEpochRecord>(bytes, kCellRecordFields);
}

double EpochRecord::max_virtual_s() const {
  double max = 0.0;
  for (const auto& cell : cells) max = std::max(max, cell.virtual_s);
  return max;
}

double EpochRecord::total_train_flops() const {
  double total = 0.0;
  for (const auto& cell : cells) total += cell.train_flops;
  return total;
}

int EpochRecord::best_cell() const {
  int best = 0;
  for (std::size_t i = 1; i < cells.size(); ++i) {
    if (cells[i].g_fitness < cells[static_cast<std::size_t>(best)].g_fitness) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

bool EpochRecord::has_genomes() const {
  if (cells.empty()) return false;
  for (const auto& cell : cells) {
    if (cell.genome.empty()) return false;
  }
  return true;
}

std::vector<std::uint8_t> EpochRecord::serialize() const {
  return common::encode(*this, kEpochRecordFields);
}

EpochRecord EpochRecord::deserialize(std::span<const std::uint8_t> bytes) {
  return common::decode<EpochRecord>(bytes, kEpochRecordFields);
}

// --- EventBus ---------------------------------------------------------------

void EventBus::subscribe(TrainObserver* observer) {
  CG_EXPECT(observer != nullptr);
  observers_.push_back(observer);
}

void EventBus::run_started(const RunInfo& info) {
  for (auto* observer : observers_) observer->on_run_started(info);
}

void EventBus::epoch_started(std::uint32_t epoch) {
  for (auto* observer : observers_) observer->on_epoch_started(epoch);
}

void EventBus::cell_stepped(const CellEpochRecord& record) {
  for (auto* observer : observers_) observer->on_cell_stepped(record);
}

void EventBus::exchange(const CellEpochRecord& record) {
  if (!record.exchange_noteworthy()) return;
  for (auto* observer : observers_) observer->on_exchange(record);
}

void EventBus::epoch_completed(const EpochRecord& record) {
  for (auto* observer : observers_) observer->on_epoch_completed(record);
  for (auto* observer : observers_) {
    if (auto snapshot = observer->take_metrics()) metrics(*snapshot);
  }
}

void EventBus::metrics(const MetricSnapshot& snapshot) {
  for (auto* observer : observers_) observer->on_metrics(snapshot);
}

void EventBus::run_completed(const RunSummary& summary) {
  for (auto* observer : observers_) observer->on_run_completed(summary);
}

void EventBus::serve_request(const ServeRequestRecord& record) {
  for (auto* observer : observers_) observer->on_serve_request(record);
}

void EventBus::serve_batch(const ServeBatchRecord& record) {
  for (auto* observer : observers_) observer->on_serve_batch(record);
}

void EventBus::data_store(const DataStoreRecord& record) {
  for (auto* observer : observers_) observer->on_data_store(record);
}

// --- JsonlTelemetrySink -----------------------------------------------------

namespace {

void append_json_number(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  out += buffer;
}

void append_json_array(std::string& out, const char* name,
                       const std::vector<double>& values) {
  out += "\"";
  out += name;
  out += "\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    append_json_number(out, values[i]);
  }
  out += ']';
}

}  // namespace

JsonlTelemetrySink::JsonlTelemetrySink(const std::string& path)
    : file_(std::fopen(path.c_str(), "a")) {
  if (file_ == nullptr) {
    std::fprintf(stderr, "telemetry: cannot open '%s'\n", path.c_str());
  }
}

JsonlTelemetrySink::~JsonlTelemetrySink() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlTelemetrySink::write_line(const std::string& line) {
  if (file_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
}

void JsonlTelemetrySink::on_run_started(const RunInfo& info) {
  std::string line = "{\"event\":\"run_started\",\"schema_version\":";
  line += std::to_string(kRunJsonSchemaVersion);
  line += ",\"backend\":\"" + info.backend + "\"";
  line += ",\"grid_rows\":" + std::to_string(info.config.grid_rows);
  line += ",\"grid_cols\":" + std::to_string(info.config.grid_cols);
  line += ",\"iterations\":" + std::to_string(info.config.iterations);
  line += ",\"seed\":" + std::to_string(info.config.seed);
  line += "}";
  write_line(line);
}

void JsonlTelemetrySink::on_exchange(const CellEpochRecord& record) {
  std::string line = "{\"event\":\"exchange\",\"epoch\":";
  line += std::to_string(record.epoch);
  line += ",\"cell\":" + std::to_string(record.cell);
  line += ",\"policy\":\"";
  line += evolve::to_string(
      static_cast<evolve::ExchangePolicyKind>(record.exchange_policy));
  line += "\",\"partner\":" + std::to_string(record.exchange_partner);
  line += ",\"g_adopted\":";
  line += record.exchange_g_adopted != 0 ? "true" : "false";
  line += ",\"d_adopted\":";
  line += record.exchange_d_adopted != 0 ? "true" : "false";
  line += ",\"g_fitness_before\":";
  append_json_number(line, record.exchange_g_before);
  line += ",\"g_fitness_after\":";
  append_json_number(line, record.exchange_g_after);
  line += ",\"d_fitness_before\":";
  append_json_number(line, record.exchange_d_before);
  line += ",\"d_fitness_after\":";
  append_json_number(line, record.exchange_d_after);
  line += ",\"wins\":" + std::to_string(record.exchange_wins);
  line += ",\"bytes_in\":";
  append_json_number(line, record.exchange_bytes);
  line += "}";
  write_line(line);
}

void JsonlTelemetrySink::on_epoch_completed(const EpochRecord& record) {
  std::string line = "{\"event\":\"epoch\",\"epoch\":";
  line += std::to_string(record.epoch);
  line += ",";
  std::vector<double> g, d, vt, flops;
  g.reserve(record.cells.size());
  d.reserve(record.cells.size());
  vt.reserve(record.cells.size());
  flops.reserve(record.cells.size());
  for (const auto& cell : record.cells) {
    g.push_back(cell.g_fitness);
    d.push_back(cell.d_fitness);
    vt.push_back(cell.virtual_s);
    flops.push_back(cell.train_flops);
  }
  append_json_array(line, "g_fitnesses", g);
  line += ",";
  append_json_array(line, "d_fitnesses", d);
  line += ",";
  append_json_array(line, "virtual_s", vt);
  line += ",\"max_virtual_s\":";
  append_json_number(line, record.max_virtual_s());
  line += ",\"train_flops\":";
  append_json_number(line, record.total_train_flops());
  line += ",\"best_cell\":" + std::to_string(record.best_cell());
  line += "}";
  write_line(line);
}

void JsonlTelemetrySink::on_metrics(const MetricSnapshot& snapshot) {
  std::string line = "{\"event\":\"metrics\",\"epoch\":";
  line += std::to_string(snapshot.epoch);
  line += ",\"best_cell\":" + std::to_string(snapshot.best_cell);
  line += ",";
  append_json_array(line, "cell_is", snapshot.cell_is);
  line += ",\"mixture_is\":";
  append_json_number(line, snapshot.mixture_is);
  line += ",\"fid\":";
  append_json_number(line, snapshot.fid);
  line += ",\"modes_covered\":" + std::to_string(snapshot.modes_covered);
  line += ",\"tvd_from_uniform\":";
  append_json_number(line, snapshot.tvd_from_uniform);
  line += "}";
  write_line(line);
}

void JsonlTelemetrySink::on_run_completed(const RunSummary& summary) {
  std::string line = "{\"event\":\"run_completed\",\"backend\":\"";
  line += summary.backend;
  line += "\",\"wall_s\":";
  append_json_number(line, summary.wall_s);
  line += ",\"virtual_s\":";
  append_json_number(line, summary.virtual_s);
  line += ",\"train_flops\":";
  append_json_number(line, summary.train_flops);
  line += ",";
  append_json_array(line, "g_fitnesses", summary.g_fitnesses);
  line += ",\"best_cell\":" + std::to_string(summary.best_cell);
  line += "}";
  write_line(line);
}

void JsonlTelemetrySink::on_serve_request(const ServeRequestRecord& record) {
  std::string line = "{\"event\":\"serve_request\",\"request_id\":";
  line += std::to_string(record.request_id);
  line += ",\"count\":" + std::to_string(record.count);
  line += ",\"batch_requests\":" + std::to_string(record.batch_requests);
  line += ",\"batch_samples\":" + std::to_string(record.batch_samples);
  line += ",\"queue_us\":";
  append_json_number(line, record.queue_us);
  line += ",\"forward_us\":";
  append_json_number(line, record.forward_us);
  line += ",\"total_us\":";
  append_json_number(line, record.total_us);
  line += ",\"cache_hit\":";
  line += record.cache_hit ? "true" : "false";
  line += "}";
  write_line(line);
}

void JsonlTelemetrySink::on_serve_batch(const ServeBatchRecord& record) {
  std::string line = "{\"event\":\"serve_batch\",\"batch_id\":";
  line += std::to_string(record.batch_id);
  line += ",\"requests\":" + std::to_string(record.requests);
  line += ",\"samples\":" + std::to_string(record.samples);
  line += ",\"delay_us\":";
  append_json_number(line, record.delay_us);
  line += ",\"forward_us\":";
  append_json_number(line, record.forward_us);
  line += "}";
  write_line(line);
}

void JsonlTelemetrySink::on_data_store(const DataStoreRecord& record) {
  std::string line = "{\"event\":\"data_store\",\"bytes_mapped\":";
  line += std::to_string(record.bytes_mapped);
  line += "}";
  write_line(line);
}

// --- CheckpointPolicyObserver -----------------------------------------------

CheckpointPolicyObserver::CheckpointPolicyObserver(std::string path,
                                                   std::uint32_t every,
                                                   TrainingConfig config)
    : path_(std::move(path)), every_(every), config_(std::move(config)) {
  CG_EXPECT(!path_.empty());
}

void CheckpointPolicyObserver::on_epoch_completed(const EpochRecord& record) {
  if (every_ == 0 || (record.epoch + 1) % every_ != 0) return;
  // Genomes travel in records only on genome-record epochs; a cadence epoch
  // without them cannot be snapshotted (the trainers align the cadences
  // through TrainingConfig::genome_record_every).
  if (!record.has_genomes()) return;
  Checkpoint snapshot;
  snapshot.config = config_;
  snapshot.centers.reserve(record.cells.size());
  snapshot.mixtures.reserve(record.cells.size());
  for (const auto& cell : record.cells) {
    snapshot.centers.push_back(evolve::CellGenome::deserialize(cell.genome));
    snapshot.mixtures.push_back(cell.mixture_weights);
    // The genomes carry the cells' absolute iteration counters (which
    // survive restore), unlike the run-relative record.epoch — same
    // semantics as TrainerCore::checkpoint, so resumed runs report honest
    // progress.
    snapshot.iteration = std::max(snapshot.iteration, snapshot.centers.back().iteration);
  }
  // Strict: the rejoin protocol restores from this file, so a write failure
  // must surface (CheckpointWriteError) rather than silently skip a snapshot.
  save_checkpoint_strict(path_, snapshot);
  ++written_;
}

}  // namespace cellgan::core
