// User-accounts database (§3): "each VDCE user account is represented by a
// 5-tuple: user name, password, user ID, priority, and access domain type."
// The Site Manager consults it to authenticate Application Editor
// connections before serving the editor to the browser.
//
// Passwords are stored salted-and-hashed (FNV-1a based).  The 1997 system
// predates modern KDFs; we keep the interface honest (no plaintext at rest)
// without pretending this is production crypto — see the doc comment on
// `hash_password`.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/expected.hpp"
#include "common/ids.hpp"

namespace vdce::db {

/// What parts of the environment an account may touch (the paper's "access
/// domain type").
enum class AccessDomain {
  kLocalSite,   ///< may only schedule onto the home site
  kNeighbors,   ///< home site plus its nearest-neighbour sites
  kGlobal,      ///< any VDCE site
};

struct UserAccount {
  std::string user_name;
  std::uint64_t password_hash = 0;
  std::uint64_t salt = 0;
  common::UserId user_id;
  int priority = 0;  ///< larger = more important; scheduler tiebreaker
  AccessDomain domain = AccessDomain::kLocalSite;
};

class UserAccountsDb {
 public:
  /// Create an account.  Fails with kAlreadyExists on duplicate user name.
  common::Expected<common::UserId> add_user(const std::string& user_name,
                                            const std::string& password,
                                            int priority, AccessDomain domain);

  /// Check credentials; returns the account on success, kAuthFailed
  /// otherwise (deliberately the same error for unknown user and wrong
  /// password).
  common::Expected<UserAccount> authenticate(const std::string& user_name,
                                             const std::string& password) const;

  common::Expected<UserAccount> find(const std::string& user_name) const;
  common::Expected<UserAccount> find(common::UserId id) const;

  common::Status remove_user(const std::string& user_name);
  common::Status set_priority(const std::string& user_name, int priority);

  [[nodiscard]] std::size_t size() const noexcept { return accounts_.size(); }

  /// Salted FNV-1a.  Documented weakness: FNV is not a password KDF; it
  /// stands in for the crypt(3) the 1997 prototype would have used while
  /// keeping the storage format hash-shaped.
  static std::uint64_t hash_password(const std::string& password,
                                     std::uint64_t salt);

 private:
  std::unordered_map<std::string, UserAccount> accounts_;  // by user name
  common::UserId::value_type next_id_ = 0;
};

}  // namespace vdce::db
