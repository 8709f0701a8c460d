#include "db/user_accounts.hpp"

namespace vdce::db {

std::uint64_t UserAccountsDb::hash_password(const std::string& password,
                                            std::uint64_t salt) {
  std::uint64_t h = 14695981039346656037ULL ^ salt;
  for (unsigned char c : password) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  // A second pass over the salt bytes so equal passwords with different
  // salts diverge even for short inputs.
  for (int i = 0; i < 8; ++i) {
    h ^= (salt >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

common::Expected<common::UserId> UserAccountsDb::add_user(
    const std::string& user_name, const std::string& password, int priority,
    AccessDomain domain) {
  if (user_name.empty()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "empty user name"};
  }
  if (accounts_.contains(user_name)) {
    return common::Error{common::ErrorCode::kAlreadyExists,
                         "user exists: " + user_name};
  }
  UserAccount acct;
  acct.user_name = user_name;
  // Deterministic salt derived from the name, so runs stay reproducible.
  // Independent accounts still get distinct salts.
  acct.salt = hash_password(user_name, 0x5157bd1e2f09add5ULL);
  acct.password_hash = hash_password(password, acct.salt);
  acct.user_id = common::UserId(next_id_++);
  acct.priority = priority;
  acct.domain = domain;
  accounts_.emplace(user_name, acct);
  return acct.user_id;
}

common::Expected<UserAccount> UserAccountsDb::authenticate(
    const std::string& user_name, const std::string& password) const {
  auto it = accounts_.find(user_name);
  if (it == accounts_.end() ||
      it->second.password_hash != hash_password(password, it->second.salt)) {
    return common::Error{common::ErrorCode::kAuthFailed,
                         "bad credentials for " + user_name};
  }
  return it->second;
}

common::Expected<UserAccount> UserAccountsDb::find(
    const std::string& user_name) const {
  auto it = accounts_.find(user_name);
  if (it == accounts_.end()) {
    return common::Error{common::ErrorCode::kNotFound,
                         "no user " + user_name};
  }
  return it->second;
}

common::Expected<UserAccount> UserAccountsDb::find(common::UserId id) const {
  for (const auto& [name, acct] : accounts_) {
    if (acct.user_id == id) return acct;
  }
  return common::Error{common::ErrorCode::kNotFound,
                       "no user id " + std::to_string(id.value())};
}

common::Status UserAccountsDb::remove_user(const std::string& user_name) {
  if (accounts_.erase(user_name) == 0) {
    return common::Error{common::ErrorCode::kNotFound, "no user " + user_name};
  }
  return common::Status::success();
}

common::Status UserAccountsDb::set_priority(const std::string& user_name,
                                            int priority) {
  auto it = accounts_.find(user_name);
  if (it == accounts_.end()) {
    return common::Error{common::ErrorCode::kNotFound, "no user " + user_name};
  }
  it->second.priority = priority;
  return common::Status::success();
}

}  // namespace vdce::db
