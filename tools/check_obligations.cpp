// check_obligations: schema + consistency gate for sepcheck's proof-
// obligation ledger.
//
//   check_obligations [--schema docs/obligations.schema.json] ledger.json
//
// Validates a document written by `sepcheck --obligations FILE` against the
// checked-in schema (docs/obligations.schema.json) and enforces the
// cross-record rules a generic schema checker cannot express:
//
//   * the per-entry summary and `open` count equal the counts recomputed
//     from the obligation records;
//   * an `annotated` obligation carries a non-empty discharge reason;
//   * a certified entry has zero open obligations and at least one record
//     for every one of the paper's six separability conditions.
//
// With --schema the schema file's "$id" must match the document's schema
// tag, so the two cannot drift apart silently. Exit 0 iff the ledger is
// valid; 1 on validation failure; 2 on usage or I/O errors.
#include <cstdio>
#include <string>
#include <vector>

#include "src/base/file.h"
#include "src/base/json.h"
#include "src/base/strings.h"
#include "src/sepcheck/obligations.h"

namespace sep {
namespace {

constexpr const char* kConditions[] = {
    "memory-partition",  "channel-exclusivity", "io-exclusivity",
    "interrupt-routing", "register-save",       "kernel-call-legality",
};
constexpr const char* kStatuses[] = {"proved", "annotated", "open"};

int IndexOf(const char* const* table, int n, const std::string& s) {
  for (int i = 0; i < n; ++i) {
    if (s == table[i]) return i;
  }
  return -1;
}

class Validator {
 public:
  bool Validate(const JsonValue& doc) {
    if (doc.kind != JsonValue::Kind::kObject) {
      return Problem("top level", "document is not a JSON object");
    }
    CheckKeys(doc, "top level", {"schema", "conditions", "entries"});
    const JsonValue* schema = doc.Find("schema");
    if (schema == nullptr || schema->kind != JsonValue::Kind::kString ||
        schema->str != sepcheck::kObligationsSchemaTag) {
      Problem("top level", Format("\"schema\" must be \"%s\"",
                                  sepcheck::kObligationsSchemaTag));
    }
    const JsonValue* conditions = doc.Find("conditions");
    if (conditions == nullptr || conditions->kind != JsonValue::Kind::kArray ||
        conditions->items.size() != 6) {
      Problem("top level", "\"conditions\" must list the six conditions");
    } else {
      for (int i = 0; i < 6; ++i) {
        if (conditions->items[static_cast<std::size_t>(i)].str != kConditions[i]) {
          Problem("top level",
                  Format("conditions[%d] must be \"%s\"", i, kConditions[i]));
        }
      }
    }
    const JsonValue* entries = doc.Find("entries");
    if (entries == nullptr || entries->kind != JsonValue::Kind::kArray) {
      return Problem("top level", "\"entries\" must be an array");
    }
    for (const JsonValue& entry : entries->items) ValidateEntry(entry);
    return problems_ == 0;
  }

  int problems() const { return problems_; }

 private:
  bool Problem(const std::string& where, const std::string& what) {
    std::fprintf(stderr, "check_obligations: %s: %s\n", where.c_str(),
                 what.c_str());
    ++problems_;
    return false;
  }

  void CheckKeys(const JsonValue& obj, const std::string& where,
                 const std::vector<std::string>& allowed) {
    for (const auto& [key, value] : obj.members) {
      bool known = false;
      for (const std::string& a : allowed) known = known || key == a;
      if (!known) Problem(where, Format("unknown key \"%s\"", key.c_str()));
    }
  }

  void ValidateEntry(const JsonValue& entry) {
    if (entry.kind != JsonValue::Kind::kObject) {
      Problem("entries", "entry is not an object");
      return;
    }
    const JsonValue* name = entry.Find("entry");
    const std::string where =
        name != nullptr && name->kind == JsonValue::Kind::kString && !name->str.empty()
            ? name->str
            : "(unnamed entry)";
    if (where == "(unnamed entry)") {
      Problem(where, "\"entry\" must be a non-empty string");
    }
    CheckKeys(entry, where, {"entry", "certified", "open", "summary", "obligations"});
    const JsonValue* certified = entry.Find("certified");
    if (certified == nullptr || certified->kind != JsonValue::Kind::kBool) {
      Problem(where, "\"certified\" must be a boolean");
      return;
    }
    const JsonValue* obligations = entry.Find("obligations");
    if (obligations == nullptr || obligations->kind != JsonValue::Kind::kArray) {
      Problem(where, "\"obligations\" must be an array");
      return;
    }

    // Recompute the per-condition counts from the records.
    int counts[6][3] = {};
    for (const JsonValue& o : obligations->items) {
      ValidateObligation(o, where, counts);
    }
    int open = 0;
    bool covered = true;
    for (const auto& by_status : counts) {
      open += by_status[2];
      covered = covered && by_status[0] + by_status[1] + by_status[2] > 0;
    }

    const JsonValue* open_field = entry.Find("open");
    if (open_field == nullptr || open_field->kind != JsonValue::Kind::kInt ||
        open_field->integer != open) {
      Problem(where, Format("\"open\" must equal the recomputed count %d", open));
    }
    ValidateSummary(entry.Find("summary"), where, counts);

    // The certification gate: a certified unit must carry a fully
    // discharged ledger that touches every condition.
    if (certified->boolean) {
      if (open != 0) {
        Problem(where, Format("certified entry has %d open obligation(s)", open));
      }
      if (!covered) {
        Problem(where, "certified entry does not cover all six conditions");
      }
    }
  }

  void ValidateObligation(const JsonValue& o, const std::string& where,
                          int (&counts)[6][3]) {
    if (o.kind != JsonValue::Kind::kObject) {
      Problem(where, "obligation is not an object");
      return;
    }
    CheckKeys(o, where,
              {"condition", "status", "unit", "address", "line", "instruction",
               "detail", "discharge"});
    const JsonValue* condition = o.Find("condition");
    const JsonValue* status = o.Find("status");
    const int c = condition != nullptr && condition->kind == JsonValue::Kind::kString
                      ? IndexOf(kConditions, 6, condition->str)
                      : -1;
    const int s = status != nullptr && status->kind == JsonValue::Kind::kString
                      ? IndexOf(kStatuses, 3, status->str)
                      : -1;
    if (c < 0) {
      Problem(where, "obligation \"condition\" is not one of the six conditions");
    }
    if (s < 0) {
      Problem(where, "obligation \"status\" must be proved/annotated/open");
    }
    if (c >= 0 && s >= 0) ++counts[c][s];

    const JsonValue* unit = o.Find("unit");
    if (unit == nullptr || unit->kind != JsonValue::Kind::kString || unit->str.empty()) {
      Problem(where, "obligation \"unit\" must be a non-empty string");
    }
    const JsonValue* address = o.Find("address");
    if (address != nullptr && (address->kind != JsonValue::Kind::kInt ||
                               address->integer < 0 || address->integer > 0xFFFF)) {
      Problem(where, "obligation \"address\" must be a machine address");
    }
    const JsonValue* line = o.Find("line");
    if (line != nullptr &&
        (line->kind != JsonValue::Kind::kInt || line->integer < 1)) {
      Problem(where, "obligation \"line\" must be a positive line number");
    }
    const JsonValue* discharge = o.Find("discharge");
    if (s == 1 && (discharge == nullptr ||
                   discharge->kind != JsonValue::Kind::kString ||
                   discharge->str.empty())) {
      Problem(where, "annotated obligation lacks a discharge reason");
    }
  }

  void ValidateSummary(const JsonValue* summary, const std::string& where,
                       const int (&counts)[6][3]) {
    if (summary == nullptr || summary->kind != JsonValue::Kind::kObject) {
      Problem(where, "\"summary\" must be an object");
      return;
    }
    std::vector<std::string> allowed;
    for (const char* c : kConditions) allowed.emplace_back(c);
    CheckKeys(*summary, where, allowed);
    for (int c = 0; c < 6; ++c) {
      const JsonValue* per = summary->Find(kConditions[c]);
      if (per == nullptr || per->kind != JsonValue::Kind::kObject) {
        Problem(where, Format("summary lacks \"%s\"", kConditions[c]));
        continue;
      }
      for (int s = 0; s < 3; ++s) {
        const JsonValue* n = per->Find(kStatuses[s]);
        if (n == nullptr || n->kind != JsonValue::Kind::kInt ||
            n->integer != counts[c][s]) {
          Problem(where, Format("summary[%s][%s] must equal the recomputed %d",
                                kConditions[c], kStatuses[s], counts[c][s]));
        }
      }
    }
  }

  int problems_ = 0;
};

// Reads and parses `path` into `out`. Returns 0, or the exit status for the
// failure: 2 if the file cannot be read, 1 if it is not valid JSON.
int LoadJson(const std::string& path, JsonValue& out) {
  const Result<std::string> text = ReadFile(path);
  if (!text.ok()) {
    std::fprintf(stderr, "check_obligations: %s\n", text.error().c_str());
    return 2;
  }
  Result<JsonValue> parsed = ParseJson(*text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "check_obligations: %s: JSON parse error: %s\n", path.c_str(),
                 parsed.error().c_str());
    return 1;
  }
  out = std::move(*parsed);
  return 0;
}

int Usage() {
  std::fputs(
      "usage: check_obligations [--schema docs/obligations.schema.json] "
      "ledger.json\n",
      stderr);
  return 2;
}

}  // namespace
}  // namespace sep

int main(int argc, char** argv) {
  std::string ledger_path;
  std::string schema_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--schema" && i + 1 < argc) {
      schema_path = argv[++i];
    } else if (arg == "--help") {
      sep::Usage();
      return 0;
    } else if (!arg.empty() && arg[0] != '-' && ledger_path.empty()) {
      ledger_path = arg;
    } else {
      return sep::Usage();
    }
  }
  if (ledger_path.empty()) return sep::Usage();

  if (!schema_path.empty()) {
    // Drift guard: the checked-in schema must describe the same document
    // version this validator (and sepcheck) implements.
    sep::JsonValue schema;
    if (const int rc = sep::LoadJson(schema_path, schema); rc != 0) return rc;
    const sep::JsonValue* id = schema.Find("$id");
    if (id == nullptr || id->kind != sep::JsonValue::Kind::kString ||
        id->str != sep::sepcheck::kObligationsSchemaTag) {
      std::fprintf(stderr,
                   "check_obligations: %s does not declare $id %s — schema and "
                   "tool have drifted\n",
                   schema_path.c_str(), sep::sepcheck::kObligationsSchemaTag);
      return 1;
    }
  }

  sep::JsonValue doc;
  if (const int rc = sep::LoadJson(ledger_path, doc); rc != 0) return rc;
  sep::Validator validator;
  if (!validator.Validate(doc)) {
    std::fprintf(stderr, "check_obligations: %s: %d problem(s)\n",
                 ledger_path.c_str(), validator.problems());
    return 1;
  }
  std::printf("check_obligations: %s: OK (%zu entries)\n", ledger_path.c_str(),
              doc.Find("entries")->items.size());
  return 0;
}
