#include "telemetry/report.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "common/json.hpp"

namespace ones::telemetry {

void write_jobs_csv(std::ostream& os, const MetricsCollector& metrics) {
  os << "job_id,arrival_s,completion_s,jct_s,exec_s,queue_s,preemptions,aborted\n";
  for (JobId id : metrics.job_ids()) {
    const auto& m = metrics.job(id);
    if (!m.completed()) continue;
    os << m.id << ',' << m.arrival_s << ',' << m.completion_s << ',' << m.jct() << ','
       << m.exec_time_s << ',' << m.queue_time() << ',' << m.preemptions << ','
       << (m.aborted ? 1 : 0) << '\n';
  }
}

void write_ecdf_csv(std::ostream& os, const std::vector<double>& values,
                    const std::string& value_header) {
  os << value_header << ",cum_fraction\n";
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    os << sorted[i] << ',' << static_cast<double>(i + 1) / n << '\n';
  }
}

std::string summary_to_json(const Summary& s) {
  std::ostringstream os;
  os << "{\"scheduler\":" << json_quote(s.scheduler) << ",\"jobs\":" << s.jobs
     << ",\"avg_jct_s\":" << json_double(s.avg_jct)
     << ",\"avg_exec_s\":" << json_double(s.avg_exec)
     << ",\"avg_queue_s\":" << json_double(s.avg_queue)
     << ",\"p50_jct_s\":" << json_double(s.p50_jct)
     << ",\"p90_jct_s\":" << json_double(s.p90_jct)
     << ",\"max_jct_s\":" << json_double(s.max_jct)
     << ",\"makespan_s\":" << json_double(s.makespan)
     << ",\"utilization\":" << json_double(s.utilization)
     << ",\"cluster_joules\":" << json_double(s.cluster_joules)
     << ",\"overhead_joules\":" << json_double(s.overhead_joules) << "}";
  return os.str();
}

std::string summaries_to_json(const std::vector<Summary>& summaries) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    if (i > 0) os << ",";
    os << summary_to_json(summaries[i]);
  }
  os << "]";
  return os.str();
}

}  // namespace ones::telemetry
