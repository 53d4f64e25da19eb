#include "src/analysis/finding.h"

#include "src/base/json.h"
#include "src/base/strings.h"

namespace sep {
namespace {

const char* SeverityName(FindingSeverity severity) {
  switch (severity) {
    case FindingSeverity::kError:
      return "error";
    case FindingSeverity::kDischarged:
      return "discharged";
    case FindingSeverity::kInfo:
      return "info";
  }
  return "unknown";
}

}  // namespace

std::string Finding::ToString() const {
  std::string out = Format("[%s] %s", tool.c_str(), unit.c_str());
  if (address >= 0) {
    out += Format(" @%04X", static_cast<unsigned>(address));
  }
  if (line >= 0) {
    out += Format(" line %d", line);
  }
  if (!instruction.empty()) {
    out += Format(" \"%s\"", instruction.c_str());
  }
  out += Format(": %s", kind.c_str());
  if (!condition.empty()) {
    out += Format(" <%s>", condition.c_str());
  }
  if (!region.empty()) {
    out += Format(" [%s]", region.c_str());
  }
  if (!message.empty()) {
    out += Format(" — %s", message.c_str());
  }
  if (!witness.empty()) {
    out += " via";
    for (Word w : witness) {
      out += Format(" %04X", w);
    }
  }
  if (severity == FindingSeverity::kDischarged) {
    out += Format(" (discharged: %s)", discharge_reason.c_str());
  } else if (severity == FindingSeverity::kInfo) {
    out += " (info)";
  }
  return out;
}

std::string Finding::ToJson() const {
  std::string out = "{";
  // Appends "key":"value", comma-separated from any field before it.
  const auto field = [&out](const char* key, std::string_view value) {
    out.append(out.size() > 1 ? ",\"" : "\"").append(key).append("\":\"");
    AppendJsonEscaped(out, value);
    out += '"';
  };
  field("tool", tool);
  field("unit", unit);
  field("kind", kind);
  field("severity", SeverityName(severity));
  if (!condition.empty()) field("condition", condition);
  if (line >= 0) out += Format(",\"line\":%d", line);
  if (address >= 0) out += Format(",\"address\":%d", address);
  if (!instruction.empty()) field("instruction", instruction);
  if (!region.empty()) field("region", region);
  if (!message.empty()) field("message", message);
  if (!witness.empty()) {
    out += ",\"witness\":[";
    for (std::size_t i = 0; i < witness.size(); ++i) {
      if (i > 0) out += ",";
      out += Format("%u", static_cast<unsigned>(witness[i]));
    }
    out += "]";
  }
  if (!discharge_reason.empty()) field("discharge", discharge_reason);
  out += "}";
  return out;
}

std::string FormatFindings(const std::vector<Finding>& findings, bool json) {
  std::string out;
  for (const Finding& f : findings) {
    out += json ? f.ToJson() : f.ToString();
    out += "\n";
  }
  return out;
}

bool Certified(const std::vector<Finding>& findings) {
  for (const Finding& f : findings) {
    if (f.Blocking()) return false;
  }
  return true;
}

}  // namespace sep
