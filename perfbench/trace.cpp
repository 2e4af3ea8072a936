#include "trace.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int Tracer::open(const std::string& name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  span.start = now();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  Span& span = spans_[static_cast<std::size_t>(index)];
  if (span.end >= 0.0) return;  // already closed by Scope::stop()
  span.end = now();
  // Spans close innermost-first; tolerate an out-of-order close by
  // dropping everything above it from the open stack.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

void Tracer::arg(int index, const std::string& key, double value) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].args[key] = value;
}

double Tracer::seconds(int index) const {
  if (index < 0) return 0.0;
  const Span& span = spans_[static_cast<std::size_t>(index)];
  return span.end - span.start;
}

std::string jsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

bool Tracer::writeTraceEvents(const std::string& path,
                              const std::string& otherData) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out << ",";
    // Complete events ("ph":"X") in microseconds; one track per op so
    // nesting shows as a flame stack.
    out << "\n{\"name\":" << jsonString(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.op;
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f", s.start * 1e6,
                  (s.end - s.start) * 1e6);
    out << buf << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op;
    for (const auto& [key, value] : s.args) {
      std::snprintf(buf, sizeof buf, "%.17g", value);
      out << "," << jsonString(key) << ":" << buf;
    }
    out << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":" << otherData
      << "}\n";
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench
