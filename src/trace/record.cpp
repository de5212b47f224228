#include "trace/record.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"

namespace ones::trace {

namespace {

struct KindName {
  RecordKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {RecordKind::RunBegin, "run_begin"},
    {RecordKind::RunEnd, "run_end"},
    {RecordKind::JobSubmitted, "job_submitted"},
    {RecordKind::JobAdmitted, "job_admitted"},
    {RecordKind::JobPlaced, "job_placed"},
    {RecordKind::JobPreempted, "job_preempted"},
    {RecordKind::JobReconfigured, "job_reconfigured"},
    {RecordKind::BatchResized, "batch_resized"},
    {RecordKind::JobCompleted, "job_completed"},
    {RecordKind::ElasticPaused, "elastic_paused"},
    {RecordKind::ElasticResumed, "elastic_resumed"},
    {RecordKind::ProtocolPhase, "protocol_phase"},
    {RecordKind::EvolutionStep, "evolution_step"},
    {RecordKind::SimEvent, "sim_event"},
    {RecordKind::GpuFailed, "gpu_failed"},
    {RecordKind::GpuRepaired, "gpu_repaired"},
    {RecordKind::JobRecovered, "job_recovered"},
};

double number_field(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::Number) {
    throw std::runtime_error(std::string("trace record missing number field '") + key +
                             "'");
  }
  return v->number;
}

int int_field(const JsonValue& obj, const char* key) {
  return static_cast<int>(std::llround(number_field(obj, key)));
}

}  // namespace

const char* kind_name(RecordKind kind) {
  for (const auto& [k, name] : kKindNames) {
    if (k == kind) return name;
  }
  return "?";
}

RecordKind kind_from_name(std::string_view name) {
  for (const auto& [kind, n] : kKindNames) {
    if (name == n) return kind;
  }
  throw std::runtime_error("unknown trace record kind '" + std::string(name) + "'");
}

std::string to_jsonl_line(const TraceRecord& r) {
  std::ostringstream os;
  os << "{\"kind\":\"" << kind_name(r.kind) << '"';
  os << ",\"t\":" << json_double(r.t);
  os << ",\"job\":" << r.job;
  os << ",\"gpus\":" << r.gpus;
  os << ",\"batch\":" << r.global_batch;
  os << ",\"old_gpus\":" << r.old_gpus;
  os << ",\"old_batch\":" << r.old_batch;
  os << ",\"cost_s\":" << json_double(r.cost_s);
  os << ",\"aborted\":" << (r.aborted ? "true" : "false");
  os << ",\"seq\":" << r.seq;
  os << ",\"count\":" << r.count;
  os << ",\"detail\":" << json_quote(r.detail);
  os << '}';
  return os.str();
}

TraceRecord record_from_jsonl_line(std::string_view line) {
  const JsonValue v = parse_json(line);
  if (v.kind != JsonValue::Kind::Object) {
    throw std::runtime_error("trace record line is not a JSON object");
  }
  const JsonValue* kind = v.find("kind");
  if (kind == nullptr || kind->kind != JsonValue::Kind::String) {
    throw std::runtime_error("trace record missing string field 'kind'");
  }
  TraceRecord r;
  r.kind = kind_from_name(kind->string);
  r.t = number_field(v, "t");
  r.job = static_cast<JobId>(std::llround(number_field(v, "job")));
  r.gpus = int_field(v, "gpus");
  r.global_batch = int_field(v, "batch");
  r.old_gpus = int_field(v, "old_gpus");
  r.old_batch = int_field(v, "old_batch");
  r.cost_s = number_field(v, "cost_s");
  const JsonValue* aborted = v.find("aborted");
  if (aborted == nullptr || aborted->kind != JsonValue::Kind::Bool) {
    throw std::runtime_error("trace record missing bool field 'aborted'");
  }
  r.aborted = aborted->boolean;
  r.seq = static_cast<std::uint64_t>(std::llround(number_field(v, "seq")));
  r.count = static_cast<std::uint64_t>(std::llround(number_field(v, "count")));
  const JsonValue* detail = v.find("detail");
  if (detail == nullptr || detail->kind != JsonValue::Kind::String) {
    throw std::runtime_error("trace record missing string field 'detail'");
  }
  r.detail = detail->string;
  return r;
}

std::vector<TraceRecord> parse_jsonl(std::string_view text) {
  std::vector<TraceRecord> records;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    if (!line.empty()) records.push_back(record_from_jsonl_line(line));
    start = end + 1;
  }
  return records;
}

std::string format_gpu_list(std::span<const GpuId> gpus) {
  std::string out;
  for (std::size_t i = 0; i < gpus.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(gpus[i]);
  }
  return out;
}

std::vector<GpuId> parse_gpu_list(const std::string& detail) {
  std::vector<GpuId> gpus;
  std::size_t start = 0;
  while (start < detail.size()) {
    std::size_t end = detail.find(',', start);
    if (end == std::string::npos) end = detail.size();
    const std::string token = detail.substr(start, end - start);
    std::size_t used = 0;
    int g = 0;
    try {
      g = std::stoi(token, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != token.size() || token.empty()) {
      throw std::runtime_error("malformed GPU list '" + detail + "'");
    }
    gpus.push_back(g);
    start = end + 1;
  }
  return gpus;
}

}  // namespace ones::trace
