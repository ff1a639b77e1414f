"""Golden digests of the measurement commands on the whole corpus.

For every corpus program, the SHA-256 of what ``polytrs --sizes 1..8
[--budget-rules B] --format csv measure X.trs`` (the growth table) and
``polytrs --sizes 1..8 [--budget-rules B] measure --kind values X.trs``
(reachable state sizes) write to stdout, and the exit code, are pinned with
B unset and with B = 5, 20, 50 and 200.  The small budgets truncate rows
part-way through the walks, so any change to which states a walk visits,
or in which order it meets the budget, shows up here.
"""

from __future__ import annotations

import hashlib

import pytest

from polytrs.cli import main

from .conftest import CORPUS, CORPUS_PROGRAMS

KINDS = {
    "growth-csv": ["--format", "csv", "measure"],
    "values": ["measure", "--kind", "values"],
}
BUDGETS = ("default", 5, 20, 50, 200)

# case id -> (SHA-256 of stdout, exit code)
GOLDEN = {
    "add:growth-csv:default": ("c9140068793ab43087f1442082206b48c188f3132d48420e642afe19c77b3231", 0),
    "add:growth-csv:5": ("491a06da8fac74e18efa6d1cb56cf7588dac67883d74734e781be81009108684", 0),
    "add:growth-csv:20": ("c9140068793ab43087f1442082206b48c188f3132d48420e642afe19c77b3231", 0),
    "add:growth-csv:50": ("c9140068793ab43087f1442082206b48c188f3132d48420e642afe19c77b3231", 0),
    "add:growth-csv:200": ("c9140068793ab43087f1442082206b48c188f3132d48420e642afe19c77b3231", 0),
    "add:values:default": ("09fe42a789cac3eb898f84f37d457b62cc5059f0d5377f23c1840aa0cb6cb62d", 0),
    "add:values:5": ("3a3f13c18b83ad635f1c3f6d0e41431e55c3a97c04d7563a3ff320fde8e1a53a", 0),
    "add:values:20": ("09fe42a789cac3eb898f84f37d457b62cc5059f0d5377f23c1840aa0cb6cb62d", 0),
    "add:values:50": ("09fe42a789cac3eb898f84f37d457b62cc5059f0d5377f23c1840aa0cb6cb62d", 0),
    "add:values:200": ("09fe42a789cac3eb898f84f37d457b62cc5059f0d5377f23c1840aa0cb6cb62d", 0),
    "append:growth-csv:default": ("67234a5940d1fcad5eded164c6fbfe7c1ef34d090fec086ec2e2ded9c336e5f9", 0),
    "append:growth-csv:5": ("8432ef74fa5963cc401d12e566baa4b35c7da30c68649d1907ed8eddd58acb6a", 0),
    "append:growth-csv:20": ("67234a5940d1fcad5eded164c6fbfe7c1ef34d090fec086ec2e2ded9c336e5f9", 0),
    "append:growth-csv:50": ("67234a5940d1fcad5eded164c6fbfe7c1ef34d090fec086ec2e2ded9c336e5f9", 0),
    "append:growth-csv:200": ("67234a5940d1fcad5eded164c6fbfe7c1ef34d090fec086ec2e2ded9c336e5f9", 0),
    "append:values:default": ("df6bfbfd82cf8e64069f0a3c6832a14df032aa8cc9ed26640ed8dbcdebb7c235", 0),
    "append:values:5": ("4b74dbdf0b463fea819dafcd8a846d8b92dcca6d81a041e40ff04f1b9788bc91", 0),
    "append:values:20": ("df6bfbfd82cf8e64069f0a3c6832a14df032aa8cc9ed26640ed8dbcdebb7c235", 0),
    "append:values:50": ("df6bfbfd82cf8e64069f0a3c6832a14df032aa8cc9ed26640ed8dbcdebb7c235", 0),
    "append:values:200": ("df6bfbfd82cf8e64069f0a3c6832a14df032aa8cc9ed26640ed8dbcdebb7c235", 0),
    "doublerec:growth-csv:default": ("502bca88bd775d411ba228828cfe32b4089ee0119ce9fb2ff2c6696cd6f83129", 0),
    "doublerec:growth-csv:5": ("bafebdcb03d41269628af8edd61cc20d21b5fd0437399e1a009ddff0e03b6648", 0),
    "doublerec:growth-csv:20": ("502bca88bd775d411ba228828cfe32b4089ee0119ce9fb2ff2c6696cd6f83129", 0),
    "doublerec:growth-csv:50": ("502bca88bd775d411ba228828cfe32b4089ee0119ce9fb2ff2c6696cd6f83129", 0),
    "doublerec:growth-csv:200": ("502bca88bd775d411ba228828cfe32b4089ee0119ce9fb2ff2c6696cd6f83129", 0),
    "doublerec:values:default": ("98b7d785e87cca42e4d999373f9a91768ede290aef45449aa3bf8f3ddc26c4f3", 0),
    "doublerec:values:5": ("68f3d018dbc6f7b36e7bfe6053af4e67c02d306885aa29f62c302bff749a9857", 0),
    "doublerec:values:20": ("98b7d785e87cca42e4d999373f9a91768ede290aef45449aa3bf8f3ddc26c4f3", 0),
    "doublerec:values:50": ("98b7d785e87cca42e4d999373f9a91768ede290aef45449aa3bf8f3ddc26c4f3", 0),
    "doublerec:values:200": ("98b7d785e87cca42e4d999373f9a91768ede290aef45449aa3bf8f3ddc26c4f3", 0),
    "even_odd:growth-csv:default": ("6bec5100216e5e3a410dc686796ae2e1ee25f53ae8fbf5ed13df131acf9dde1d", 0),
    "even_odd:growth-csv:5": ("b2690f46a197ce13ec3b0a611f49379451ebef0c4710153bf830bf1c38918ca2", 0),
    "even_odd:growth-csv:20": ("6bec5100216e5e3a410dc686796ae2e1ee25f53ae8fbf5ed13df131acf9dde1d", 0),
    "even_odd:growth-csv:50": ("6bec5100216e5e3a410dc686796ae2e1ee25f53ae8fbf5ed13df131acf9dde1d", 0),
    "even_odd:growth-csv:200": ("6bec5100216e5e3a410dc686796ae2e1ee25f53ae8fbf5ed13df131acf9dde1d", 0),
    "even_odd:values:default": ("f78ed2e2c85d730931a0873187ff7829c486f8dbb0e5d9b1f7661bc0f6e4a993", 0),
    "even_odd:values:5": ("73dc6f41d77926e6d57289d5c8cd652684d9dba01abae38f0530ec4aa7b0fdd8", 0),
    "even_odd:values:20": ("f78ed2e2c85d730931a0873187ff7829c486f8dbb0e5d9b1f7661bc0f6e4a993", 0),
    "even_odd:values:50": ("f78ed2e2c85d730931a0873187ff7829c486f8dbb0e5d9b1f7661bc0f6e4a993", 0),
    "even_odd:values:200": ("f78ed2e2c85d730931a0873187ff7829c486f8dbb0e5d9b1f7661bc0f6e4a993", 0),
    "fib:growth-csv:default": ("3af61b3dabc766ab9decf40261c68b066fcbd6aa5d31348f767a407f302009ca", 0),
    "fib:growth-csv:5": ("e5a270d565101efaf9adb7a249fb82696d06d27b7ad05fc400e3aa9408cc4333", 0),
    "fib:growth-csv:20": ("e5e9a872a7895a1ee4ca9269f37bbc15fe6d87bc1a283a94a248547966ea5314", 0),
    "fib:growth-csv:50": ("cdcbaef764b07ac06da431a93da2b207c6a9af141b2b3dfea19b148824afc528", 0),
    "fib:growth-csv:200": ("3af61b3dabc766ab9decf40261c68b066fcbd6aa5d31348f767a407f302009ca", 0),
    "fib:values:default": ("fd6c6e616e64b47cfd63b53bf962290147c82e8e449a51880db37d8ce71df313", 0),
    "fib:values:5": ("dba2d9069cec6e881d4df5cc4e0deb3a8e3f8473c893d97b4ad22b4c6e8933ca", 0),
    "fib:values:20": ("5704c49ccb2c7ae526620b822cbd1699a98178c3401e3d42472d461234cf1f2a", 0),
    "fib:values:50": ("04b46cfc1cca583e4c678617a092f78cffbcadd78117f13c15d9ff3c82c434ed", 0),
    "fib:values:200": ("fd6c6e616e64b47cfd63b53bf962290147c82e8e449a51880db37d8ce71df313", 0),
    "flip:growth-csv:default": ("8e0301b35acc444ea226fd1d60b3f880e4d2a8ea22a2e728a196cf36a93eb3b7", 0),
    "flip:growth-csv:5": ("0b51e0df72567d0a59986efa87859ebc8a367c177d680936e32f8c1c5defd866", 0),
    "flip:growth-csv:20": ("8e0301b35acc444ea226fd1d60b3f880e4d2a8ea22a2e728a196cf36a93eb3b7", 0),
    "flip:growth-csv:50": ("8e0301b35acc444ea226fd1d60b3f880e4d2a8ea22a2e728a196cf36a93eb3b7", 0),
    "flip:growth-csv:200": ("8e0301b35acc444ea226fd1d60b3f880e4d2a8ea22a2e728a196cf36a93eb3b7", 0),
    "flip:values:default": ("2f635a9e66cfbf49fd1f6a47c6c7ac760d6e6a7393f0f6a2419bddfc23082c3f", 0),
    "flip:values:5": ("bb3bde1808043c94d667abd4cbeff88fc9cdfe05f3cd5955820fcfb028ec5237", 0),
    "flip:values:20": ("2f635a9e66cfbf49fd1f6a47c6c7ac760d6e6a7393f0f6a2419bddfc23082c3f", 0),
    "flip:values:50": ("2f635a9e66cfbf49fd1f6a47c6c7ac760d6e6a7393f0f6a2419bddfc23082c3f", 0),
    "flip:values:200": ("2f635a9e66cfbf49fd1f6a47c6c7ac760d6e6a7393f0f6a2419bddfc23082c3f", 0),
    "grid2:growth-csv:default": ("44765c7abe9e3362a91b1b4a4dd61626d28b44f8be1bec43697cb7362464ce9a", 0),
    "grid2:growth-csv:5": ("b9fd51e272c6e8f5dbac13ac8531033bff60f2580595a2f9c7acec06dc69a267", 0),
    "grid2:growth-csv:20": ("8597f3cc008395cb14e0dcf2dd6b67076fca13b4c145e1ebfad5bdaf7470af5e", 0),
    "grid2:growth-csv:50": ("5b977195767a4a268cf189dfc67d86400e2afcc3c1bf32fb61376bb8c771ea89", 0),
    "grid2:growth-csv:200": ("44765c7abe9e3362a91b1b4a4dd61626d28b44f8be1bec43697cb7362464ce9a", 0),
    "grid2:values:default": ("78cfb08e6ea6ab62169951be153ace9611d34f782f8cb8b0735e83ac4201a8b6", 0),
    "grid2:values:5": ("88d8a65e4e0a1764ab6418ba3eee9eeeecc9965cbb1f6461dc4e00e88e2874d5", 0),
    "grid2:values:20": ("d5cacf8f84be6dc91bc962bb7c40828c13dec1dc9e84e2c63107f6b32373f5fa", 0),
    "grid2:values:50": ("e85420cd71c33ab82a454f8a5c1b8dc0dccc5b331f437f07dc6143a476bfd903", 0),
    "grid2:values:200": ("78cfb08e6ea6ab62169951be153ace9611d34f782f8cb8b0735e83ac4201a8b6", 0),
    "grid3:growth-csv:default": ("f99bc5bc4ab066b4c5e64bf3133c7820ecb96de8acc90c3b598dbf5491dab26a", 0),
    "grid3:growth-csv:5": ("1eeba73c637e6687e383314cb1ce13188e2b4baf333b2f0c160f8388089e42c1", 0),
    "grid3:growth-csv:20": ("16784a7024b76359391cf33eb2b21007f49443aff60b9f7d34ec8cbcea5a87d1", 0),
    "grid3:growth-csv:50": ("1df230cac7cf7120bce2812975d8e4f978fd2e92e59486cf7a069c316d9f979b", 0),
    "grid3:growth-csv:200": ("f99bc5bc4ab066b4c5e64bf3133c7820ecb96de8acc90c3b598dbf5491dab26a", 0),
    "grid3:values:default": ("21e94ac5ebffbb66a6f41e8fd71fbd195f583256433f8e383443df21e7672b62", 0),
    "grid3:values:5": ("0fc3eae1ebb5e10fafdb157bc53e7e8448ad05afbd0611a28e462e08610db54d", 0),
    "grid3:values:20": ("b6768af7c866b51b783dfbcddd5c64456cd7dd837abb8db6e9f7f5bc669fb6a2", 0),
    "grid3:values:50": ("3c8b85442fa1e02cf5c6fd4175eb37965db7ecffb6273fed40e55cfe42999e6e", 0),
    "grid3:values:200": ("21e94ac5ebffbb66a6f41e8fd71fbd195f583256433f8e383443df21e7672b62", 0),
    "grow:growth-csv:default": ("69ee4217405b742382393781e922d18547581cbb86222702a1d8594f9818ec95", 0),
    "grow:growth-csv:5": ("edc70b6d3306079d53f1075a0779dd9597404dff477f910a974b1b5b8f741d60", 0),
    "grow:growth-csv:20": ("ec261cbe926b34237660f09d293c7aae8a27d81547a06b0be9a26296d71f907d", 0),
    "grow:growth-csv:50": ("87a6b06440b7c38312eedb5a0f501efc2c85cfc0469d5513a705a108bcaca073", 0),
    "grow:growth-csv:200": ("16ef4c788410ad51b0de5b68cf6558773be83d862edface976a85a8accf34b49", 0),
    "grow:values:default": ("00b425b7862fd71ab6c7e9fad43f8a460ffb64f3b74b74881d85c02a7ae7277b", 0),
    "grow:values:5": ("addff5ee5786f6aee1ec2fd23743e8e64b4184b797a10674524443ec18a0518d", 0),
    "grow:values:20": ("6d30c820b0b1e8315dc1827788f64ab3797276c7ca877faded85960d9b56d386", 0),
    "grow:values:50": ("0d651caa6f20f07ad79c55fa8fc023606bddc55fb46e8b80187da4de9c04b21b", 0),
    "grow:values:200": ("e38677ce44885c7037b4ee35d550fdfb603e1d6c9af42e9091b5b02690332da8", 0),
    "identity:growth-csv:default": ("306005854758f549037c9e504e427ca059da389989ceb1f0f658282816093896", 0),
    "identity:growth-csv:5": ("306005854758f549037c9e504e427ca059da389989ceb1f0f658282816093896", 0),
    "identity:growth-csv:20": ("306005854758f549037c9e504e427ca059da389989ceb1f0f658282816093896", 0),
    "identity:growth-csv:50": ("306005854758f549037c9e504e427ca059da389989ceb1f0f658282816093896", 0),
    "identity:growth-csv:200": ("306005854758f549037c9e504e427ca059da389989ceb1f0f658282816093896", 0),
    "identity:values:default": ("f6c8351c530095a547b4611a156d60036797bb61f045b1c5ea8e595004b95877", 0),
    "identity:values:5": ("f6c8351c530095a547b4611a156d60036797bb61f045b1c5ea8e595004b95877", 0),
    "identity:values:20": ("f6c8351c530095a547b4611a156d60036797bb61f045b1c5ea8e595004b95877", 0),
    "identity:values:50": ("f6c8351c530095a547b4611a156d60036797bb61f045b1c5ea8e595004b95877", 0),
    "identity:values:200": ("f6c8351c530095a547b4611a156d60036797bb61f045b1c5ea8e595004b95877", 0),
    "maxw:growth-csv:default": ("9165e3ca112fabb60898e69db27b5e38fa726560ba4b20a8ee26ed98f98352f7", 0),
    "maxw:growth-csv:5": ("f56a961f352fd759a04a1ca9fe99791dc4c17664ec50cbeb115fcd66b4618606", 0),
    "maxw:growth-csv:20": ("9165e3ca112fabb60898e69db27b5e38fa726560ba4b20a8ee26ed98f98352f7", 0),
    "maxw:growth-csv:50": ("9165e3ca112fabb60898e69db27b5e38fa726560ba4b20a8ee26ed98f98352f7", 0),
    "maxw:growth-csv:200": ("9165e3ca112fabb60898e69db27b5e38fa726560ba4b20a8ee26ed98f98352f7", 0),
    "maxw:values:default": ("3465358c5e604a9b4bac2b070eb19f7346d5f0fab52dc35799aa9188f9759d77", 0),
    "maxw:values:5": ("3465358c5e604a9b4bac2b070eb19f7346d5f0fab52dc35799aa9188f9759d77", 0),
    "maxw:values:20": ("3465358c5e604a9b4bac2b070eb19f7346d5f0fab52dc35799aa9188f9759d77", 0),
    "maxw:values:50": ("3465358c5e604a9b4bac2b070eb19f7346d5f0fab52dc35799aa9188f9759d77", 0),
    "maxw:values:200": ("3465358c5e604a9b4bac2b070eb19f7346d5f0fab52dc35799aa9188f9759d77", 0),
    "mult:growth-csv:default": ("9f0040248e66adefe3da260c07a5885078990b0f33e9a49493641efd4f17564a", 0),
    "mult:growth-csv:5": ("655caf0fd15f884efef31d30edcd60e7cf7293b61a2f3909eca0ab438df9ee8c", 0),
    "mult:growth-csv:20": ("2921d1f96f0ecb2611940c2a09dd8add25c3d49620d37bf9c1b2344fe3538a59", 0),
    "mult:growth-csv:50": ("9f0040248e66adefe3da260c07a5885078990b0f33e9a49493641efd4f17564a", 0),
    "mult:growth-csv:200": ("9f0040248e66adefe3da260c07a5885078990b0f33e9a49493641efd4f17564a", 0),
    "mult:values:default": ("8b80cb0436511fe425bd9726a17706524e20ebfcfdbaa6a56afbd6c5cb939cc7", 0),
    "mult:values:5": ("cc4484939ef1809fae881bc6b41f7ab4be435a28251d4ff2b9c9543067cc3e21", 0),
    "mult:values:20": ("55c1f0e7cce458d878eb02cc4f1c6f5660ca99217e48115fdb9f4147904b6778", 0),
    "mult:values:50": ("8b80cb0436511fe425bd9726a17706524e20ebfcfdbaa6a56afbd6c5cb939cc7", 0),
    "mult:values:200": ("8b80cb0436511fe425bd9726a17706524e20ebfcfdbaa6a56afbd6c5cb939cc7", 0),
    "norm2rule:growth-csv:default": ("9a56ca4ae9544eca68df611d690a43c696565b8cb4f265923fc9f15d493aef11", 0),
    "norm2rule:growth-csv:5": ("9a56ca4ae9544eca68df611d690a43c696565b8cb4f265923fc9f15d493aef11", 0),
    "norm2rule:growth-csv:20": ("9a56ca4ae9544eca68df611d690a43c696565b8cb4f265923fc9f15d493aef11", 0),
    "norm2rule:growth-csv:50": ("9a56ca4ae9544eca68df611d690a43c696565b8cb4f265923fc9f15d493aef11", 0),
    "norm2rule:growth-csv:200": ("9a56ca4ae9544eca68df611d690a43c696565b8cb4f265923fc9f15d493aef11", 0),
    "norm2rule:values:default": ("b87d57601047cb93e76b5421d094347812bb2c0d9d266296f246cdbb69083741", 0),
    "norm2rule:values:5": ("b87d57601047cb93e76b5421d094347812bb2c0d9d266296f246cdbb69083741", 0),
    "norm2rule:values:20": ("b87d57601047cb93e76b5421d094347812bb2c0d9d266296f246cdbb69083741", 0),
    "norm2rule:values:50": ("b87d57601047cb93e76b5421d094347812bb2c0d9d266296f246cdbb69083741", 0),
    "norm2rule:values:200": ("b87d57601047cb93e76b5421d094347812bb2c0d9d266296f246cdbb69083741", 0),
    "norm2rule_nil:growth-csv:default": ("d8ab33b7b5b13213c5b0a4848d51a8ba7488ba7c7d22f29194f7578a4539c526", 0),
    "norm2rule_nil:growth-csv:5": ("3bb3e53eae767155fef194def927d25aa5adc447e307965ed1331d9618dcea2a", 0),
    "norm2rule_nil:growth-csv:20": ("d8ab33b7b5b13213c5b0a4848d51a8ba7488ba7c7d22f29194f7578a4539c526", 0),
    "norm2rule_nil:growth-csv:50": ("d8ab33b7b5b13213c5b0a4848d51a8ba7488ba7c7d22f29194f7578a4539c526", 0),
    "norm2rule_nil:growth-csv:200": ("d8ab33b7b5b13213c5b0a4848d51a8ba7488ba7c7d22f29194f7578a4539c526", 0),
    "norm2rule_nil:values:default": ("6103ea9303b5b26a41cae48be1e7e03510c1e43591d3b14c9831fc44cb54e2bc", 0),
    "norm2rule_nil:values:5": ("ca2685aac25ddc0726af6fb3f25821ed283cac63af50e026d71f4631e73c4839", 0),
    "norm2rule_nil:values:20": ("6103ea9303b5b26a41cae48be1e7e03510c1e43591d3b14c9831fc44cb54e2bc", 0),
    "norm2rule_nil:values:50": ("6103ea9303b5b26a41cae48be1e7e03510c1e43591d3b14c9831fc44cb54e2bc", 0),
    "norm2rule_nil:values:200": ("6103ea9303b5b26a41cae48be1e7e03510c1e43591d3b14c9831fc44cb54e2bc", 0),
    "reverse:growth-csv:default": ("67234a5940d1fcad5eded164c6fbfe7c1ef34d090fec086ec2e2ded9c336e5f9", 0),
    "reverse:growth-csv:5": ("cf2597b25ff9ff84e45faf4823b9bbe8bac8702ce6c09d03d0b2c712975f603d", 0),
    "reverse:growth-csv:20": ("67234a5940d1fcad5eded164c6fbfe7c1ef34d090fec086ec2e2ded9c336e5f9", 0),
    "reverse:growth-csv:50": ("67234a5940d1fcad5eded164c6fbfe7c1ef34d090fec086ec2e2ded9c336e5f9", 0),
    "reverse:growth-csv:200": ("67234a5940d1fcad5eded164c6fbfe7c1ef34d090fec086ec2e2ded9c336e5f9", 0),
    "reverse:values:default": ("df6bfbfd82cf8e64069f0a3c6832a14df032aa8cc9ed26640ed8dbcdebb7c235", 0),
    "reverse:values:5": ("4b74dbdf0b463fea819dafcd8a846d8b92dcca6d81a041e40ff04f1b9788bc91", 0),
    "reverse:values:20": ("df6bfbfd82cf8e64069f0a3c6832a14df032aa8cc9ed26640ed8dbcdebb7c235", 0),
    "reverse:values:50": ("df6bfbfd82cf8e64069f0a3c6832a14df032aa8cc9ed26640ed8dbcdebb7c235", 0),
    "reverse:values:200": ("df6bfbfd82cf8e64069f0a3c6832a14df032aa8cc9ed26640ed8dbcdebb7c235", 0),
    "running:growth-csv:default": ("31942e80a942cd934ebd9da6ebed3caeceb75727c653bdebab1cfd9ac766a746", 0),
    "running:growth-csv:5": ("6eac8ba827cabc17e4b0ee532ad8c73a277ae85c7cb778ea6add5efc9e20c359", 0),
    "running:growth-csv:20": ("31942e80a942cd934ebd9da6ebed3caeceb75727c653bdebab1cfd9ac766a746", 0),
    "running:growth-csv:50": ("31942e80a942cd934ebd9da6ebed3caeceb75727c653bdebab1cfd9ac766a746", 0),
    "running:growth-csv:200": ("31942e80a942cd934ebd9da6ebed3caeceb75727c653bdebab1cfd9ac766a746", 0),
    "running:values:default": ("8c43eff7dd13cca0d38aac6a2fff6fa71ef8a9fd13dbf0fc2572c719478d1690", 0),
    "running:values:5": ("f4f76f9d22cffbce65f6712f983809c430496be0981141e18fe8eaee75df82f9", 0),
    "running:values:20": ("8c43eff7dd13cca0d38aac6a2fff6fa71ef8a9fd13dbf0fc2572c719478d1690", 0),
    "running:values:50": ("8c43eff7dd13cca0d38aac6a2fff6fa71ef8a9fd13dbf0fc2572c719478d1690", 0),
    "running:values:200": ("8c43eff7dd13cca0d38aac6a2fff6fa71ef8a9fd13dbf0fc2572c719478d1690", 0),
    "trip:growth-csv:default": ("3976ca27244265bd52a2b9fb359ff67d8c03bb6f28e40771782486cdfc39b0f3", 0),
    "trip:growth-csv:5": ("440ff422697d7259b0b457cb9feaeea5281b45bad076a250c36f7e0bc79fded7", 0),
    "trip:growth-csv:20": ("7f8e9a5af5e631fddf7fb5fc264b85a291f59070040aa09dba93964d28004c2c", 0),
    "trip:growth-csv:50": ("f90c85c86485a36f7d57fabd664117e8ce0ee6941cca7bceac8c2f8312906cba", 0),
    "trip:growth-csv:200": ("3976ca27244265bd52a2b9fb359ff67d8c03bb6f28e40771782486cdfc39b0f3", 0),
    "trip:values:default": ("8095023d122a8297ebd27c2b6878ca7436fd38e129c83ff698421447122b0b19", 0),
    "trip:values:5": ("b14015ba026a618fdeed61dd5d6d6d1297c41f82e9f2a526eb91f2335ad7a364", 0),
    "trip:values:20": ("cf6b8d688591b6d7d56d2ebfd427cf9c60eb4c27db5c75d20f29130c43d78d9a", 0),
    "trip:values:50": ("7865f09db9e73f5f005ab74664668baad686b95ad7ada73b3109d5cd9ec1208c", 0),
    "trip:values:200": ("8095023d122a8297ebd27c2b6878ca7436fd38e129c83ff698421447122b0b19", 0),
    "twoclass:growth-csv:default": ("44765c7abe9e3362a91b1b4a4dd61626d28b44f8be1bec43697cb7362464ce9a", 0),
    "twoclass:growth-csv:5": ("b9fd51e272c6e8f5dbac13ac8531033bff60f2580595a2f9c7acec06dc69a267", 0),
    "twoclass:growth-csv:20": ("8597f3cc008395cb14e0dcf2dd6b67076fca13b4c145e1ebfad5bdaf7470af5e", 0),
    "twoclass:growth-csv:50": ("5b977195767a4a268cf189dfc67d86400e2afcc3c1bf32fb61376bb8c771ea89", 0),
    "twoclass:growth-csv:200": ("44765c7abe9e3362a91b1b4a4dd61626d28b44f8be1bec43697cb7362464ce9a", 0),
    "twoclass:values:default": ("78cfb08e6ea6ab62169951be153ace9611d34f782f8cb8b0735e83ac4201a8b6", 0),
    "twoclass:values:5": ("88d8a65e4e0a1764ab6418ba3eee9eeeecc9965cbb1f6461dc4e00e88e2874d5", 0),
    "twoclass:values:20": ("d5cacf8f84be6dc91bc962bb7c40828c13dec1dc9e84e2c63107f6b32373f5fa", 0),
    "twoclass:values:50": ("e85420cd71c33ab82a454f8a5c1b8dc0dccc5b331f437f07dc6143a476bfd903", 0),
    "twoclass:values:200": ("78cfb08e6ea6ab62169951be153ace9611d34f782f8cb8b0735e83ac4201a8b6", 0),
}

CASES = {
    f"{name[:-4]}:{kind}:{budget}": (name, kind, budget)
    for name in CORPUS_PROGRAMS
    for kind in KINDS
    for budget in BUDGETS
}


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_measure_output_bytes(case_id, capsys):
    name, kind, budget = CASES[case_id]
    flags = [] if budget == "default" else ["--budget-rules", str(budget)]
    code = main(["--sizes", "1..8", *flags, *KINDS[kind], str(CORPUS / name)])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (digest, code) == GOLDEN[case_id]
