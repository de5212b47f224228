#include "trace/sink.hpp"

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "common/atomic_file.hpp"
#include "common/json.hpp"

namespace ones::trace {

namespace fs = std::filesystem;

void JsonlSink::on_record(const TraceRecord& record) {
  out_ << to_jsonl_line(record) << '\n';
}

namespace {

/// Perfetto tracks: tid 0 is the run-level track, job j renders on tid j+1.
long long job_tid(JobId job) { return static_cast<long long>(job) + 1; }

/// Chrome trace timestamps are microseconds.
std::string ts_us(double t) { return json_double(t * 1e6); }

std::string slice_name(const TraceRecord& r) {
  return "run c=" + std::to_string(r.gpus) + " B=" + std::to_string(r.global_batch);
}

}  // namespace

ChromeTraceSink::ChromeTraceSink(std::ostream& out) : out_(out) {
  out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
}

ChromeTraceSink::~ChromeTraceSink() { close(); }

void ChromeTraceSink::close() {
  if (closed_) return;
  closed_ = true;
  out_ << "\n]}\n";
  out_.flush();
}

void ChromeTraceSink::emit(const std::string& event_json) {
  out_ << (first_ ? "\n" : ",\n") << event_json;
  first_ = false;
}

void ChromeTraceSink::raw_event(const std::string& event_json) {
  if (closed_) throw std::logic_error("ChromeTraceSink: raw_event after close()");
  emit(event_json);
}

void ChromeTraceSink::instant(const TraceRecord& r, const std::string& name) {
  std::ostringstream os;
  os << "{\"name\":" << json_quote(name) << ",\"cat\":\"job\",\"ph\":\"i\",\"s\":\"t\""
     << ",\"ts\":" << ts_us(r.t) << ",\"pid\":0,\"tid\":" << job_tid(r.job) << '}';
  emit(os.str());
}

void ChromeTraceSink::begin_slice(const TraceRecord& r) {
  std::ostringstream os;
  os << "{\"name\":" << json_quote(slice_name(r)) << ",\"cat\":\"job\",\"ph\":\"B\""
     << ",\"ts\":" << ts_us(r.t) << ",\"pid\":0,\"tid\":" << job_tid(r.job)
     << ",\"args\":{\"gpus\":" << json_quote(r.detail)
     << ",\"cost_s\":" << json_double(r.cost_s) << "}}";
  emit(os.str());
  open_slice_.insert(r.job);
}

void ChromeTraceSink::end_slice(const TraceRecord& r) {
  if (open_slice_.erase(r.job) == 0) return;
  std::ostringstream os;
  os << "{\"cat\":\"job\",\"ph\":\"E\",\"ts\":" << ts_us(r.t)
     << ",\"pid\":0,\"tid\":" << job_tid(r.job) << '}';
  emit(os.str());
}

void ChromeTraceSink::on_record(const TraceRecord& r) {
  if (closed_) throw std::logic_error("ChromeTraceSink: record after close()");
  switch (r.kind) {
    case RecordKind::RunBegin: {
      std::ostringstream os;
      os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":"
         << "{\"name\":" << json_quote("cluster: " + r.detail + ", " +
                                       std::to_string(r.gpus) + " GPUs, " +
                                       std::to_string(r.global_batch) + " jobs")
         << "}}";
      emit(os.str());
      break;
    }
    case RecordKind::RunEnd: {
      std::ostringstream os;
      os << "{\"name\":\"run_end\",\"cat\":\"run\",\"ph\":\"i\",\"s\":\"g\",\"ts\":"
         << ts_us(r.t) << ",\"pid\":0,\"tid\":0}";
      emit(os.str());
      break;
    }
    case RecordKind::JobSubmitted: {
      std::ostringstream os;
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << job_tid(r.job)
         << ",\"args\":{\"name\":"
         << json_quote("job " + std::to_string(r.job) + " (" + r.detail + ")") << "}}";
      emit(os.str());
      instant(r, "submitted");
      break;
    }
    case RecordKind::JobAdmitted: instant(r, "admitted"); break;
    case RecordKind::JobPlaced: begin_slice(r); break;
    case RecordKind::JobPreempted:
      end_slice(r);
      instant(r, "preempted");
      break;
    case RecordKind::JobReconfigured:
      end_slice(r);
      begin_slice(r);
      break;
    case RecordKind::BatchResized:
      instant(r, "batch " + std::to_string(r.old_batch) + "->" +
                     std::to_string(r.global_batch));
      break;
    case RecordKind::JobCompleted:
      end_slice(r);
      instant(r, r.aborted ? "aborted" : "completed");
      break;
    case RecordKind::ElasticPaused: {
      // The blocked time is known up front, so the pause renders as one
      // complete span whose length is the charged re-configuration cost.
      std::ostringstream os;
      os << "{\"name\":" << json_quote("pause (" + r.detail + ")")
         << ",\"cat\":\"elastic\",\"ph\":\"X\",\"ts\":" << ts_us(r.t)
         << ",\"dur\":" << json_double(r.cost_s * 1e6)
         << ",\"pid\":0,\"tid\":" << job_tid(r.job) << '}';
      emit(os.str());
      break;
    }
    case RecordKind::ElasticResumed: instant(r, "resumed"); break;
    case RecordKind::ProtocolPhase: instant(r, "phase: " + r.detail); break;
    case RecordKind::EvolutionStep: {
      std::ostringstream os;
      os << "{\"name\":\"evolution_rounds\",\"cat\":\"ones\",\"ph\":\"C\",\"ts\":"
         << ts_us(r.t) << ",\"pid\":0,\"tid\":0,\"args\":{\"rounds\":" << r.count << "}}";
      emit(os.str());
      break;
    }
    case RecordKind::SimEvent: break;  // engine-level noise; JSONL keeps it
    case RecordKind::GpuFailed: {
      std::ostringstream os;
      os << "{\"name\":" << json_quote("gpu down: " + r.detail)
         << ",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"g\",\"ts\":" << ts_us(r.t)
         << ",\"pid\":0,\"tid\":0}";
      emit(os.str());
      break;
    }
    case RecordKind::GpuRepaired: {
      std::ostringstream os;
      os << "{\"name\":" << json_quote("gpu up: " + r.detail)
         << ",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"g\",\"ts\":" << ts_us(r.t)
         << ",\"pid\":0,\"tid\":0}";
      emit(os.str());
      break;
    }
    case RecordKind::JobRecovered:
      instant(r, "recovered (" + r.detail + ")");
      break;
  }
}

RunTraceWriter::RunTraceWriter(const std::string& dir, const std::string& stem) {
  fs::create_directories(dir);
  jsonl_path_ = (fs::path(dir) / (stem + ".jsonl")).string();
  chrome_path_ = (fs::path(dir) / (stem + ".trace.json")).string();
  jsonl_tmp_ = common::unique_temp_path(jsonl_path_);
  chrome_tmp_ = common::unique_temp_path(chrome_path_);
  jsonl_out_.open(jsonl_tmp_, std::ios::binary | std::ios::trunc);
  chrome_out_.open(chrome_tmp_, std::ios::binary | std::ios::trunc);
  if (!jsonl_out_ || !chrome_out_) {
    throw std::runtime_error("cannot open trace files under '" + dir + "'");
  }
  jsonl_ = std::make_unique<JsonlSink>(jsonl_out_);
  chrome_ = std::make_unique<ChromeTraceSink>(chrome_out_);
}

RunTraceWriter::~RunTraceWriter() {
  if (closed_) return;
  // Never closed: the run did not finish (it threw), so publish nothing.
  chrome_.reset();
  jsonl_out_.close();
  chrome_out_.close();
  std::error_code ignored;
  fs::remove(jsonl_tmp_, ignored);
  fs::remove(chrome_tmp_, ignored);
}

void RunTraceWriter::on_record(const TraceRecord& record) {
  jsonl_->on_record(record);
  chrome_->on_record(record);
}

void RunTraceWriter::chrome_raw_event(const std::string& event_json) {
  if (closed_) throw std::logic_error("RunTraceWriter: chrome_raw_event after close()");
  chrome_->raw_event(event_json);
}

void RunTraceWriter::close() {
  if (closed_) return;
  closed_ = true;
  chrome_->close();
  jsonl_out_.flush();
  jsonl_out_.close();
  chrome_out_.close();
  fs::rename(jsonl_tmp_, jsonl_path_);
  fs::rename(chrome_tmp_, chrome_path_);
}

}  // namespace ones::trace
