// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/obs/export.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace dimmunix {
namespace obs {
namespace {

// Type-specific args object. The data/aux words mean different things per
// event type (src/obs/trace_event.h); naming them here keeps the Perfetto
// side self-describing.
std::string EventArgs(const TraceEvent& e) {
  char buf[128];
  switch (static_cast<TraceEventType>(e.type)) {
    case TraceEventType::kAcquire:
    case TraceEventType::kAcquireCancel:
      std::snprintf(buf, sizeof(buf), "{\"lock\":\"0x%" PRIx64 "\",\"mode\":\"%s\"}", e.data,
                    e.mode == 0 ? "X" : "S");
      break;
    case TraceEventType::kYield:
      std::snprintf(buf, sizeof(buf),
                    "{\"signature\":%u,\"lock\":\"0x%" PRIx64 "\",\"mode\":\"%s\"}", e.aux,
                    e.data, e.mode == 0 ? "X" : "S");
      break;
    case TraceEventType::kEpoch:
      std::snprintf(buf, sizeof(buf), "{\"stall_ns\":%" PRIu64 "}", e.data);
      break;
    case TraceEventType::kCoverSearch:
      if (e.aux == kNoMatchAux) {
        std::snprintf(buf, sizeof(buf), "{\"matched\":false}");
      } else {
        std::snprintf(buf, sizeof(buf), "{\"matched\":true,\"signature\":%u}", e.aux);
      }
      break;
    case TraceEventType::kMonitorPass:
      std::snprintf(buf, sizeof(buf), "{\"events_drained\":%" PRIu64 "}", e.data);
      break;
    case TraceEventType::kBridgeFold:
      std::snprintf(buf, sizeof(buf), "{\"edges_folded\":%" PRIu64 "}", e.data);
      break;
    case TraceEventType::kStoreCompact:
      std::snprintf(buf, sizeof(buf), "{\"foreign_merged\":%" PRIu64 "}", e.data);
      break;
    case TraceEventType::kFleetSync:
      std::snprintf(buf, sizeof(buf), "{\"peer\":%u,\"records_in\":%u,\"records_out\":%u}",
                    e.aux, static_cast<std::uint32_t>(e.data >> 32),
                    static_cast<std::uint32_t>(e.data));
      break;
    case TraceEventType::kIpcFlush:
      std::snprintf(buf, sizeof(buf), "{\"ops_drained\":%" PRIu64 ",\"rows_written\":%u}", e.data,
                    e.aux);
      break;
    default:
      std::snprintf(buf, sizeof(buf), "{}");
      break;
  }
  return buf;
}

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string ChromeTraceJson(const Recorder& recorder, std::uint64_t pid) {
  const std::vector<Recorder::RingDump> rings = recorder.SnapshotRings();
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  char line[256];
  // Process metadata row, so merged multi-process traces label their rows.
  std::snprintf(line, sizeof(line),
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%" PRIu64
                ",\"args\":{\"name\":\"dimmunix:%" PRIu64 "\"}}",
                pid, pid);
  out += line;
  first = false;
  for (const Recorder::RingDump& ring : rings) {
    if (!ring.name.empty()) {
      std::snprintf(line, sizeof(line),
                    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%" PRIu64 ",\"tid\":%" PRIu64
                    ",\"args\":{\"name\":\"%s\"}}",
                    pid, ring.tid, JsonEscape(ring.name).c_str());
      out += ",\n";
      out += line;
    }
    if (ring.dropped > 0) {
      // Surface ring overflow in the trace itself — a silent gap would read
      // as "nothing happened" exactly when the system was busiest.
      std::snprintf(line, sizeof(line),
                    "{\"name\":\"ring_dropped\",\"ph\":\"C\",\"pid\":%" PRIu64 ",\"tid\":%" PRIu64
                    ",\"ts\":0,\"args\":{\"events\":%" PRIu64 "}}",
                    pid, ring.tid, ring.dropped);
      out += ",\n";
      out += line;
    }
    for (const TraceEvent& e : ring.events) {
      const std::uint64_t begin_ns = e.end_ns - e.dur_ns;
      std::snprintf(line, sizeof(line),
                    "{\"name\":\"%s\",\"cat\":\"dimmunix\",\"ph\":\"X\",\"pid\":%" PRIu64
                    ",\"tid\":%" PRIu64 ",\"ts\":%.3f,\"dur\":%.3f,\"args\":%s}",
                    TraceEventTypeName(e.type), pid, ring.tid, static_cast<double>(begin_ns) / 1000.0,
                    static_cast<double>(e.dur_ns) / 1000.0, EventArgs(e).c_str());
      if (!first) {
        out += ",\n";
      }
      out += line;
      first = false;
    }
  }
  out += "\n]}\n";
  return out;
}

bool WriteChromeTraceFile(const Recorder& recorder, std::uint64_t pid, const std::string& path,
                          std::string* error) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  file << ChromeTraceJson(recorder, pid);
  file.flush();
  if (!file) {
    if (error != nullptr) {
      *error = "write failed for " + path;
    }
    return false;
  }
  return true;
}

std::string ExpandPidPattern(const std::string& path, std::uint64_t pid) {
  std::string out = path;
  const std::size_t at = out.find("%p");
  if (at != std::string::npos) {
    out.replace(at, 2, std::to_string(pid));
  }
  return out;
}

bool MergeChromeTraceFiles(const std::vector<std::string>& inputs, const std::string& output,
                           std::string* error) {
  std::string merged = "{\"traceEvents\":[\n";
  bool first = true;
  for (const std::string& input : inputs) {
    std::ifstream file(input, std::ios::binary);
    if (!file) {
      if (error != nullptr) {
        *error = "cannot read " + input;
      }
      return false;
    }
    std::ostringstream buf;
    buf << file.rdbuf();
    const std::string text = buf.str();
    const std::size_t key = text.find("\"traceEvents\"");
    const std::size_t open = key == std::string::npos ? std::string::npos : text.find('[', key);
    const std::size_t close = text.rfind(']');
    if (open == std::string::npos || close == std::string::npos || close <= open) {
      if (error != nullptr) {
        *error = input + " is not a trace document";
      }
      return false;
    }
    std::string body = text.substr(open + 1, close - open - 1);
    // Trim whitespace; an all-metadata/empty array contributes nothing.
    const std::size_t begin = body.find_first_not_of(" \t\r\n");
    const std::size_t end = body.find_last_not_of(" \t\r\n");
    if (begin == std::string::npos) {
      continue;
    }
    body = body.substr(begin, end - begin + 1);
    if (!first) {
      merged += ",\n";
    }
    merged += body;
    first = false;
  }
  merged += "\n]}\n";
  std::ofstream out(output, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) {
      *error = "cannot open " + output;
    }
    return false;
  }
  out << merged;
  out.flush();
  if (!out) {
    if (error != nullptr) {
      *error = "write failed for " + output;
    }
    return false;
  }
  return true;
}

void AppendPromCounter(std::string* out, const std::string& name, const std::string& help,
                       std::uint64_t value) {
  *out += "# HELP " + name + " " + help + "\n";
  *out += "# TYPE " + name + " counter\n";
  *out += name + " " + std::to_string(value) + "\n";
}

void AppendPromGauge(std::string* out, const std::string& name, const std::string& help,
                     std::uint64_t value) {
  *out += "# HELP " + name + " " + help + "\n";
  *out += "# TYPE " + name + " gauge\n";
  *out += name + " " + std::to_string(value) + "\n";
}

void AppendPromFamily(std::string* out, const std::string& name, const std::string& help,
                      const char* type) {
  *out += "# HELP " + name + " " + help + "\n";
  *out += "# TYPE " + name + " " + type + "\n";
}

void AppendPromSample(std::string* out, const std::string& name, const std::string& labels,
                      std::uint64_t value) {
  *out += name + "{" + labels + "} " + std::to_string(value) + "\n";
}

std::string PromLabelEscape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void AppendPromHistogram(std::string* out, const std::string& name, const std::string& help,
                         const HistogramSnapshot& snapshot) {
  *out += "# HELP " + name + " " + help + "\n";
  *out += "# TYPE " + name + " histogram\n";
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < snapshot.buckets.size(); ++b) {
    if (snapshot.buckets[b] == 0) {
      continue;  // the log-linear layout has ~1000 buckets; ship only live ones
    }
    cumulative += snapshot.buckets[b];
    *out += name + "_bucket{le=\"" + std::to_string(Histogram::BucketUpperBound(b)) + "\"} " +
            std::to_string(cumulative) + "\n";
  }
  *out += name + "_bucket{le=\"+Inf\"} " + std::to_string(snapshot.count) + "\n";
  *out += name + "_sum " + std::to_string(snapshot.sum) + "\n";
  *out += name + "_count " + std::to_string(snapshot.count) + "\n";
}

std::string HistoReadout(const HistogramSnapshot& snapshot) {
  std::ostringstream out;
  out << "count=" << snapshot.count << "\n";
  out << "sum_ns=" << snapshot.sum << "\n";
  out << "mean_ns=" << snapshot.Mean() << "\n";
  out << "p50_ns=" << snapshot.Percentile(50.0) << "\n";
  out << "p90_ns=" << snapshot.Percentile(90.0) << "\n";
  out << "p99_ns=" << snapshot.Percentile(99.0) << "\n";
  out << "p999_ns=" << snapshot.Percentile(99.9) << "\n";
  out << "p9999_ns=" << snapshot.Percentile(99.99) << "\n";
  return out.str();
}

}  // namespace obs
}  // namespace dimmunix
