#include "src/sepcheck/obligations.h"

#include "src/base/json.h"
#include "src/base/strings.h"

namespace sep::sepcheck {

const char* ConditionSlug(Condition c) {
  switch (c) {
    case Condition::kMemoryPartition:
      return "memory-partition";
    case Condition::kChannelExclusivity:
      return "channel-exclusivity";
    case Condition::kIoExclusivity:
      return "io-exclusivity";
    case Condition::kInterruptRouting:
      return "interrupt-routing";
    case Condition::kRegisterSave:
      return "register-save";
    case Condition::kKernelCallLegality:
      return "kernel-call-legality";
  }
  return "unknown";
}

const char* ObligationStatusSlug(ObligationStatus s) {
  switch (s) {
    case ObligationStatus::kProved:
      return "proved";
    case ObligationStatus::kAnnotated:
      return "annotated";
    case ObligationStatus::kOpen:
      return "open";
  }
  return "unknown";
}

std::string Obligation::ToJson() const {
  std::string out = "{";
  // Appends ,"key":"value".
  const auto field = [&out](const char* key, std::string_view value) {
    out.append(",\"").append(key).append("\":\"");
    AppendJsonEscaped(out, value);
    out += '"';
  };
  out += Format("\"condition\":\"%s\"", ConditionSlug(condition));
  out += Format(",\"status\":\"%s\"", ObligationStatusSlug(status));
  field("unit", unit);
  if (address >= 0) out += Format(",\"address\":%d", address);
  if (line >= 0) out += Format(",\"line\":%d", line);
  if (!instruction.empty()) field("instruction", instruction);
  if (!detail.empty()) field("detail", detail);
  if (!discharge_reason.empty()) field("discharge", discharge_reason);
  out += "}";
  return out;
}

std::string ObligationSummary::ToJson() const {
  std::string out = "{";
  for (int c = 0; c < kConditionCount; ++c) {
    if (c > 0) out += ",";
    out += Format("\"%s\":{\"proved\":%d,\"annotated\":%d,\"open\":%d}",
                  ConditionSlug(static_cast<Condition>(c)), counts[c][0],
                  counts[c][1], counts[c][2]);
  }
  out += "}";
  return out;
}

std::string RenderObligationsJson(const std::vector<EntryObligations>& entries) {
  std::string out;
  out += "{\n";
  out += Format("  \"schema\": \"%s\",\n", kObligationsSchemaTag);
  out += "  \"conditions\": [";
  for (int c = 0; c < kConditionCount; ++c) {
    if (c > 0) out += ", ";
    out += Format("\"%s\"", ConditionSlug(static_cast<Condition>(c)));
  }
  out += "],\n";
  out += "  \"entries\": [\n";
  for (std::size_t e = 0; e < entries.size(); ++e) {
    const EntryObligations& entry = entries[e];
    ObligationSummary summary;
    for (const Obligation& o : entry.obligations) summary.Add(o);
    out += "    {\n";
    out += "      \"entry\": \"";
    AppendJsonEscaped(out, entry.entry);
    out += "\",\n";
    out += Format("      \"certified\": %s,\n", entry.certified ? "true" : "false");
    out += Format("      \"open\": %d,\n", summary.Open());
    out += Format("      \"summary\": %s,\n", summary.ToJson().c_str());
    out += "      \"obligations\": [\n";
    for (std::size_t i = 0; i < entry.obligations.size(); ++i) {
      out += "        " + entry.obligations[i].ToJson();
      out += i + 1 < entry.obligations.size() ? ",\n" : "\n";
    }
    out += "      ]\n";
    out += e + 1 < entries.size() ? "    },\n" : "    }\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

}  // namespace sep::sepcheck
