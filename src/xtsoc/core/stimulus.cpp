#include "xtsoc/core/stimulus.hpp"

#include <charconv>
#include <map>
#include <sstream>

#include "xtsoc/common/strings.hpp"

namespace xtsoc::core {

using runtime::InstanceHandle;
using runtime::Value;

namespace {

/// What a stimulus script drives: the abstract executor or a cosim.
class Driver {
public:
  virtual ~Driver() = default;
  virtual InstanceHandle create(const std::string& cls) = 0;
  virtual runtime::Database& db_of(const InstanceHandle& h) = 0;
  virtual void inject(const InstanceHandle& h, const std::string& event,
                      std::vector<Value> args, std::uint64_t delay) = 0;
  virtual void run(std::size_t limit) = 0;
  virtual std::string summary() const = 0;
  virtual std::string trace_text() const = 0;
};

class AbstractDriver : public Driver {
public:
  explicit AbstractDriver(const Project& project)
      : exec_(project.make_abstract_executor()) {}

  InstanceHandle create(const std::string& cls) override {
    return exec_->create(cls);
  }
  runtime::Database& db_of(const InstanceHandle&) override {
    return exec_->database();
  }
  void inject(const InstanceHandle& h, const std::string& event,
              std::vector<Value> args, std::uint64_t delay) override {
    exec_->inject(h, event, std::move(args), delay);
  }
  void run(std::size_t limit) override { exec_->run_all(limit); }
  std::string summary() const override {
    std::ostringstream os;
    os << exec_->dispatch_count() << " dispatches, t=" << exec_->now();
    return os.str();
  }
  std::string trace_text() const override {
    return exec_->trace().to_string();
  }

private:
  std::unique_ptr<runtime::Executor> exec_;
};

class CosimDriver : public Driver {
public:
  CosimDriver(const Project& project, cosim::CoSimConfig config)
      : cosim_(project.make_cosim(config)) {}

  InstanceHandle create(const std::string& cls) override {
    return cosim_->create(cls);
  }
  runtime::Database& db_of(const InstanceHandle& h) override {
    return cosim_->executor_of(h.cls).database();
  }
  void inject(const InstanceHandle& h, const std::string& event,
              std::vector<Value> args, std::uint64_t delay) override {
    cosim_->inject(h, event, std::move(args), delay);
  }
  void run(std::size_t limit) override { cosim_->run(limit); }
  std::string summary() const override {
    std::uint64_t hw = 0;
    for (const auto& d : cosim_->hw_domains()) hw += d->dispatches();
    std::ostringstream os;
    os << hw << " hw + " << cosim_->sw_executor().dispatch_count()
       << " sw dispatches, " << cosim_->cycles() << " cycles";
    return os.str();
  }
  std::string trace_text() const override {
    std::string text;
    for (std::size_t i = 0; i < cosim_->hw_domains().size(); ++i) {
      text += "--- hardware partition";
      if (cosim_->hw_domains().size() > 1) {
        text += " (domain " + std::to_string(i) + ")";
      }
      text += " ---\n";
      text += cosim_->hw_domains()[i]->executor().trace().to_string();
    }
    text += "--- software partition ---\n";
    text += cosim_->sw_executor().trace().to_string();
    return text;
  }

  const cosim::CoSimulation& cosim() const { return *cosim_; }

private:
  std::unique_ptr<cosim::CoSimulation> cosim_;
};

class Script {
public:
  Script(const Project& project, Driver& driver, std::ostream& out)
      : project_(project), driver_(driver), out_(out) {}

  StimulusResult run(std::string_view text) {
    int line_no = 0;
    for (const std::string& raw : split(text, '\n')) {
      ++line_no;
      std::string line(trim(raw));
      std::size_t hash = line.find('#');
      if (hash != std::string::npos) line = std::string(trim(line.substr(0, hash)));
      if (line.empty()) continue;
      ++result_.commands;
      if (!command(line)) {
        out_ << "stimulus:" << line_no << ": error in '" << line << "'\n";
        result_.ok = false;
        return result_;
      }
    }
    result_.ok = result_.ok && result_.failed_expectations == 0;
    return result_;
  }

private:
  std::vector<std::string> words(const std::string& line) {
    std::vector<std::string> out;
    std::string cur;
    bool in_str = false;
    for (char c : line) {
      if (c == '"') in_str = !in_str;
      if (!in_str && std::isspace(static_cast<unsigned char>(c))) {
        if (!cur.empty()) {
          out.push_back(cur);
          cur.clear();
        }
      } else {
        cur.push_back(c);
      }
    }
    if (!cur.empty()) out.push_back(cur);
    return out;
  }

  bool parse_value(const std::string& text, Value* out) {
    if (text == "true") {
      *out = true;
    } else if (text == "false") {
      *out = false;
    } else if (!text.empty() && text.front() == '@') {
      auto it = byname_.find(text.substr(1));
      if (it == byname_.end()) return false;
      *out = it->second;
    } else if (!text.empty() && text.front() == '"') {
      if (text.size() < 2 || text.back() != '"') return false;
      *out = text.substr(1, text.size() - 2);
    } else if (text.find('.') != std::string::npos) {
      try {
        *out = std::stod(text);
      } catch (...) {
        return false;
      }
    } else {
      std::int64_t v = 0;
      auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc{} || p != text.data() + text.size()) return false;
      *out = v;
    }
    return true;
  }

  const InstanceHandle* resolve(const std::string& name) {
    auto it = byname_.find(name);
    return it == byname_.end() ? nullptr : &it->second;
  }

  bool command(const std::string& line) {
    std::vector<std::string> w = words(line);
    try {
      if (w[0] == "create") return cmd_create(w);
      if (w[0] == "inject") return cmd_inject(w);
      if (w[0] == "run") {
        // `run [N]` — at most N dispatches/cycles (models may self-tick
        // forever by design; the default bound keeps scripts terminating).
        std::size_t limit = 100000;
        if (w.size() >= 2) {
          Value v;
          if (!parse_value(w[1], &v)) return false;
          limit = static_cast<std::size_t>(std::get<std::int64_t>(v));
        }
        driver_.run(limit);
        return true;
      }
      if (w[0] == "expect") return cmd_expect(w);
      if (w[0] == "expect_state") return cmd_expect_state(w);
      if (w[0] == "print") return cmd_print(w);
    } catch (const std::exception& e) {
      out_ << "stimulus: " << e.what() << '\n';
      return false;
    }
    return false;
  }

  bool cmd_create(const std::vector<std::string>& w) {
    if (w.size() < 3) return false;
    const std::string& name = w[1];
    if (byname_.contains(name)) return false;
    InstanceHandle h = driver_.create(w[2]);
    byname_[name] = h;
    const xtuml::ClassDef* cls = project_.domain().find_class(w[2]);
    for (std::size_t i = 3; i < w.size(); ++i) {
      std::size_t eq = w[i].find('=');
      if (eq == std::string::npos) return false;
      const xtuml::AttributeDef* attr =
          cls->find_attribute(w[i].substr(0, eq));
      Value v;
      if (attr == nullptr || !parse_value(w[i].substr(eq + 1), &v)) {
        return false;
      }
      driver_.db_of(h).set_attr(h, attr->id, std::move(v));
    }
    return true;
  }

  bool cmd_inject(const std::vector<std::string>& w) {
    if (w.size() < 3) return false;
    const InstanceHandle* h = resolve(w[1]);
    if (h == nullptr) return false;
    const xtuml::ClassDef& cls = project_.domain().cls(h->cls);
    const xtuml::EventDef* ev = cls.find_event(w[2]);
    if (ev == nullptr) return false;

    std::vector<Value> args(ev->params.size());
    std::vector<bool> covered(ev->params.size(), false);
    std::uint64_t delay = 0;
    for (std::size_t i = 3; i < w.size(); ++i) {
      std::size_t eq = w[i].find('=');
      if (eq == std::string::npos) return false;
      std::string key = w[i].substr(0, eq);
      Value v;
      if (!parse_value(w[i].substr(eq + 1), &v)) return false;
      if (key == "delay") {
        const auto* d = std::get_if<std::int64_t>(&v);
        if (d == nullptr || *d < 0) return false;  // a delay is ticks >= 0
        delay = static_cast<std::uint64_t>(*d);
        continue;
      }
      bool found = false;
      for (std::size_t p = 0; p < ev->params.size(); ++p) {
        if (ev->params[p].name == key) {
          args[p] = std::move(v);
          covered[p] = true;
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    for (std::size_t p = 0; p < ev->params.size(); ++p) {
      if (!covered[p]) {
        args[p] = runtime::default_value(ev->params[p].type);
      }
    }
    driver_.inject(*h, w[2], std::move(args), delay);
    return true;
  }

  bool cmd_expect(const std::vector<std::string>& w) {
    // expect <name>.<attr> == <value>
    if (w.size() != 4 || w[2] != "==") return false;
    std::size_t dot = w[1].find('.');
    if (dot == std::string::npos) return false;
    const InstanceHandle* h = resolve(w[1].substr(0, dot));
    if (h == nullptr) return false;
    const xtuml::ClassDef& cls = project_.domain().cls(h->cls);
    const xtuml::AttributeDef* attr = cls.find_attribute(w[1].substr(dot + 1));
    Value want;
    if (attr == nullptr || !parse_value(w[3], &want)) return false;
    Value got = driver_.db_of(*h).get_attr(*h, attr->id);
    if (!runtime::value_equals(got, want)) {
      out_ << "EXPECT FAILED: " << w[1] << " == " << runtime::to_string(want)
           << ", got " << runtime::to_string(got) << '\n';
      ++result_.failed_expectations;
    } else {
      out_ << "expect ok: " << w[1] << " == " << runtime::to_string(want)
           << '\n';
    }
    return true;
  }

  bool cmd_expect_state(const std::vector<std::string>& w) {
    if (w.size() != 3) return false;
    const InstanceHandle* h = resolve(w[1]);
    if (h == nullptr) return false;
    const xtuml::ClassDef& cls = project_.domain().cls(h->cls);
    const xtuml::StateDef* want = cls.find_state(w[2]);
    if (want == nullptr) return false;
    runtime::Database& db = driver_.db_of(*h);
    if (!db.is_alive(*h) || db.current_state(*h) != want->id) {
      out_ << "EXPECT FAILED: " << w[1] << " in state " << w[2] << ", got "
           << (db.is_alive(*h) ? cls.state(db.current_state(*h)).name
                               : std::string("<deleted>"))
           << '\n';
      ++result_.failed_expectations;
    } else {
      out_ << "expect ok: " << w[1] << " in state " << w[2] << '\n';
    }
    return true;
  }

  bool cmd_print(const std::vector<std::string>& w) {
    if (w.size() != 2) return false;
    if (w[1] == "summary") {
      out_ << driver_.summary() << '\n';
      return true;
    }
    if (w[1] == "trace") {
      out_ << driver_.trace_text();
      return true;
    }
    return false;
  }

  const Project& project_;
  Driver& driver_;
  std::ostream& out_;
  std::map<std::string, InstanceHandle> byname_;
  StimulusResult result_;
};

}  // namespace

std::string StimulusResult::to_string() const {
  std::ostringstream os;
  os << (ok ? "OK" : "FAILED") << " (" << commands << " commands, "
     << failed_expectations << " failed expectations)";
  return os.str();
}

StimulusResult run_stimulus(const Project& project, std::string_view script,
                            std::ostream& out) {
  AbstractDriver driver(project);
  return Script(project, driver, out).run(script);
}

StimulusResult run_stimulus_cosim(
    const Project& project, std::string_view script, std::ostream& out,
    cosim::CoSimConfig config,
    const std::function<void(const cosim::CoSimulation&)>& on_finish) {
  CosimDriver driver(project, config);
  StimulusResult result = Script(project, driver, out).run(script);
  if (on_finish) on_finish(driver.cosim());
  return result;
}

}  // namespace xtsoc::core
